"""Every command form but `--help` against its committed record, byte for byte.

The inputs, the forms and the records live in `tests/golden/`; after a change
meant to alter an output, `python tests/golden/regen.py` rewrites them.
"""

import importlib.util
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
