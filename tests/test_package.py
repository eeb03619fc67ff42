import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpeval


def test_every_public_name_is_the_object_its_home_module_defines():
    for name in kpeval.__all__:
        value = getattr(kpeval, name)
        home = value.__module__
        assert home.startswith("kpeval."), name
        assert getattr(sys.modules[home], name) is value, name


_IMPORT_LAZILY = """
import sys
import kpeval
loaded = lambda: [m for m in sorted(sys.modules) if m.startswith("kpeval.")]
print(loaded(), set(kpeval.__all__) <= set(dir(kpeval)))
print(kpeval.scoring.Subtask is kpeval.Subtask, loaded())
"""


def test_names_and_submodules_load_on_first_use():
    # A fresh process: in this one, other tests have used every name.
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", _IMPORT_LAZILY],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.splitlines() == [
        "[] True",
        "True ['kpeval.brat', 'kpeval.model', 'kpeval.scoring']",
    ]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kpeval.no_such_name
