"""The benchmark generator's expectations against hand-worked fixtures.

Run from the repository root with either of:

    python3 -m unittest discover -s bench/tests
    PYTHONPATH=src python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402

# The worked example of the README: "Information extraction" (0, 22) ...
TEXT = (
    "Information extraction is the process of extracting structured data "
    "from unstructured text, which is relevant for several end-to-end tasks, "
    "including question answering. This paper addresses the tasks of "
    "named entity recognition (NER), a subtask of information extraction, "
    "using conditional random fields (CRF). Our method is evaluated on the "
    "ConLL-2003 NER corpus."
)
M, P, T = gen.TYPES


def worked_gold() -> gen.Doc:
    spans = {
        "T1": (T, 0, 22), "T2": (T, 150, 168), "T3": (T, 204, 228),
        "T4": (T, 230, 233), "T5": (T, 249, 271), "T6": (P, 279, 304),
        "T7": (P, 306, 309), "T8": (M, 343, 364),
    }
    return gen.Doc("example1", TEXT, spans, hyponyms=[("T3", "T1")],
                   synonym_groups=[("T3", "T4")], synonym_r=[("T6", "T7")])


def worked_pred() -> gen.Doc:
    """Keeps four spans; one synonym is right, one hyponym is invented."""
    spans = {"T1": (P, 279, 304), "T2": (P, 306, 309),
             "T3": (T, 0, 22), "T4": (T, 150, 168)}
    return gen.Doc("example1", TEXT, spans, hyponyms=[("T3", "T4")],
                   synonym_groups=[("T2", "T1")])


class WorkedExample(unittest.TestCase):
    def test_scenario_counts(self):
        want = {"A": [4, 0, 4], "B": [4, 0, 4], "C": [1, 1, 2]}
        got = gen.expected_scores([worked_gold()], {"example1": worked_pred()}, 1)
        self.assertEqual(got[None], want)
        got = gen.expected_scores([worked_gold()], {"example1": worked_pred()}, 3)
        self.assertEqual(got[None], {"C": [1, 1, 2]})

    def test_missing_prediction_is_all_false_negatives(self):
        got = gen.expected_scores([worked_gold()], {}, 2)
        self.assertEqual(got[None], {"B": [0, 0, 8], "C": [0, 0, 3]})

    def test_genres_split_the_counts(self):
        other = gen.Doc("example2", TEXT, {"T1": (T, 0, 22)})
        got = gen.expected_scores([worked_gold(), other], {"example1": worked_pred()}, 1,
                                  genres={"example1": "CS"})
        self.assertEqual(got["CS"], {"A": [4, 0, 4], "B": [4, 0, 4], "C": [1, 1, 2]})
        self.assertEqual(got["unmapped"], {"A": [0, 0, 1], "B": [0, 0, 1], "C": [0, 0, 0]})
        self.assertEqual(got[None]["A"], [4, 0, 5])

    def test_star_line_expands_to_all_pairs(self):
        doc = worked_gold()
        doc.synonym_groups = [("T3", "T4", "T5")]
        self.assertEqual(len(gen.items(doc)["C"]), 1 + 3 + 1)

    def test_kpeval_scores_the_written_fixture_the_same_way(self):
        from kpeval.cli import run_cli

        with tempfile.TemporaryDirectory() as tmp:
            gen.write_corpus(Path(tmp, "gold"), [worked_gold()])
            gen.write_corpus(Path(tmp, "pred"), [worked_pred()], with_text=False)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_cli(["score", "--scenario", "1", "--gold", f"{tmp}/gold",
                                "--pred", f"{tmp}/pred", "--json"])
        self.assertEqual(code, 0)
        report = json.loads(out.getvalue())
        self.assertEqual(
            {t: [r["tp"], r["fp"], r["fn"]] for t, r in report["subtasks"].items()},
            {"A": [4, 0, 4], "B": [4, 0, 4], "C": [1, 1, 2]})


class RoundTrip(unittest.TestCase):
    TEXT = "Carbon nanotube arrays conduct heat. Quartz wafers hold samples."

    def doc(self, **kw) -> gen.Doc:
        spans = {"T1": (M, 0, 6), "T2": (M, 7, 22), "T3": (M, 37, 43), "T4": (M, 7, 15)}
        return gen.Doc("d", self.TEXT, spans, hyponyms=[("T4", "T1")],
                       synonym_groups=[("T2", "T1")], **kw)

    def test_nested_span_and_its_relations_are_lost(self):
        got = gen.expected_roundtrip([self.doc(nested=frozenset({"T4"}))], snap=False)
        self.assertEqual(got, {"A": [3, 0, 1], "B": [3, 0, 1], "C": [1, 0, 1]})

    def test_shifted_span_without_snap_is_a_false_negative(self):
        doc = self.doc()
        del doc.spans["T4"]
        doc.hyponyms = []
        doc.spans["T2"] = (M, 8, 22)  # "anotube arrays"
        doc.shifted = frozenset({"T2"})
        got = gen.expected_roundtrip([doc], snap=False)
        self.assertEqual(got, {"A": [2, 0, 1], "B": [2, 0, 1], "C": [0, 0, 1]})
        got = gen.expected_roundtrip([doc], snap=True)
        self.assertEqual(got, {"A": [2, 1, 1], "B": [2, 1, 1], "C": [0, 1, 1]})


class Statistics(unittest.TestCase):
    def test_counts_and_normalization(self):
        text = "Graphene  Oxide films. Graphene oxide and graphene oxide films."
        doc = gen.Doc("s", text, {
            "T1": (M, 0, 15), "T2": (M, 23, 37), "T3": (M, 42, 62), "T4": (M, 0, 8),
        })
        stats = gen.expected_stats([doc], k=2)
        self.assertEqual(stats["n_mentions"], 4)
        self.assertEqual(stats["n_unique"], 3)  # "graphene oxide" twice
        self.assertEqual(stats["top_k"], [["graphene oxide", 2], ["graphene", 1]])
        self.assertEqual(stats["pct_single_word"], 25.0)
        self.assertEqual(stats["pct_len_ge3"], 25.0)
        self.assertEqual(stats["pct_singleton"], 100.0 * 2 / 3)

    def test_majority_type_ties_break_material_first(self):
        docs = [gen.Doc("a", "Silicon wafer.", {"T1": (T, 0, 7)}),
                gen.Doc("b", "silicon wafer.", {"T1": (M, 0, 7), "T2": (P, 8, 13)})]
        self.assertEqual(gen.majority_types(docs), {"silicon": M, "wafer": P})


class Determinism(unittest.TestCase):
    def test_same_seed_same_documents(self):
        shape = gen.Shape(nest_rate=0.2, irregular=True)
        a = gen.make_corpus(random.Random(7), "d", 5, shape)
        b = gen.make_corpus(random.Random(7), "d", 5, shape)
        self.assertEqual([gen.ann_text(d) for d in a], [gen.ann_text(d) for d in b])
        self.assertEqual([d.text for d in a], [d.text for d in b])


if __name__ == "__main__":
    unittest.main()
