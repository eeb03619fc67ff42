"""Every command form but `--help` against its committed record, byte for byte.

The inputs, the forms and the records live in `tests/golden/`; after a change
meant to alter an output, `python tests/golden/regen.py` rewrites them.
The records are made in-process through `run_cli`; a few forms also run
through `python -m kpeval.cli`, the path of the console script.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", list(regen.FORMS))
def test_command_output_equals_its_golden_record(name, tmp_path):
    regen.copy_inputs(tmp_path)
    assert regen.run_form(regen.FORMS[name], tmp_path) == regen.read_record(name)


def test_every_record_belongs_to_a_form():
    assert sorted(p.name for p in regen.RECORDS.iterdir()) == sorted(regen.FORMS)


@pytest.mark.parametrize(
    "name", ["validate", "baseline-oracle", "convert-ann-malformed", "usage-missing-dir"]
)
def test_the_entry_point_writes_the_golden_record(name, tmp_path):
    regen.copy_inputs(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "kpeval.cli", *regen.FORMS[name]],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src, **regen.ENVIRON),
        capture_output=True, timeout=60,
    )
    assert {
        "exit": f"{run.returncode}\n".encode(),
        "stdout": run.stdout,
        "stderr": run.stderr,
        **regen.take_out(tmp_path),
    } == regen.read_record(name)
