import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpeval
from kpeval.analytics import AgreementReport, CorpusStats
from kpeval.codec import LabeledSequence, SentenceTokenization, Token
from kpeval.model import Document, Keyphrase, KeyphraseType, Relation, RelationType
from kpeval.scoring import MatchCounts, SubtaskScore


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


def test_every_traced_benchmark_layer_exists():
    # The traced benchmark round looks each layer up by name, so a deleted
    # function makes it raise AttributeError.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_NAMES
    for name in tracing.LAYER_NAMES:
        module, function = name.split(".")
        home = importlib.import_module(f"kpeval.{module}")
        assert callable(getattr(home, function, None)), name


_SENTENCE = SentenceTokenization(0, 4, (Token(0, 4, "Iron"),))
RECORDS = [
    Keyphrase("T1", KeyphraseType.MATERIAL, 0, 4, "Iron"),
    Relation(RelationType.HYPONYM_OF, "T1", "T2"),
    Document("d", "Iron"),
    Token(0, 4, "Iron"),
    _SENTENCE,
    LabeledSequence(_SENTENCE, ("B",), ("M",), {}),
    MatchCounts(1, 2, 3),
    SubtaskScore(MatchCounts(), 0.0, 0.0, 0.0),
    CorpusStats(1, 1, 100.0, 100.0, 0.0, 0.0, (("iron", 1),)),
    AgreementReport(1.0, 1, 0, "token_a", 4),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_reject_assignment_and_copy_with_replace(record):
    first, *_ = record._fields
    with pytest.raises(AttributeError):
        setattr(record, first, "changed")
    with pytest.raises(AttributeError):
        record.extra = "changed"
    changed = record._replace(**{first: "changed"})
    assert type(changed) is type(record)
    assert (changed[0], changed[1:]) == ("changed", record[1:])
    assert getattr(record, first) != "changed"
    assert record._asdict() == dict(zip(record._fields, record))
