"""Exact-match evaluation of predicted annotations against gold.

Items are compared set-wise per document and pooled over the corpus before
computing precision/recall/F1 (micro-averaging):

  * subtask A: untyped character spans (start, end);
  * subtask B: typed spans (start, end, type);
  * subtask C: relation triples — hyponymy as an ordered span pair, synonymy
    as an unordered one.

Matching is on character offsets, never on surface strings: two mentions of
the same phrase at different offsets are different items.  A 0/0 division
yields 0, so an empty submission scores zero.

The three evaluation scenarios decide which subtasks are scored (S1: A, B, C;
S2: B, C; S3: C).  The "overall" row pools subtask B and C items by default —
that pooling is a documented reconstruction, selectable via `pool`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .brat import Corpus
from .model import Document, RelationType


class Subtask(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


class Scenario(enum.Enum):
    S1 = 1
    S2 = 2
    S3 = 3

    @property
    def subtasks(self) -> tuple[Subtask, ...]:
        return _SCENARIO_SUBTASKS[self]


_SCENARIO_SUBTASKS = {
    Scenario.S1: (Subtask.A, Subtask.B, Subtask.C),
    Scenario.S2: (Subtask.B, Subtask.C),
    Scenario.S3: (Subtask.C,),
}


class MatchCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        """Field-wise sum, not tuple concatenation."""
        return MatchCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


class SubtaskScore(NamedTuple):
    counts: MatchCounts
    precision: float
    recall: float
    f1: float


# The counts of one document: subtasks A, B and C, in that order.
DocCounts = tuple[MatchCounts, MatchCounts, MatchCounts]


class ScoreReport:
    def __init__(
        self,
        scenario: Scenario,
        subtasks: dict[Subtask, SubtaskScore],
        overall: SubtaskScore,
        pool: str = "bc",
        diagnostics: list[str] | None = None,
        per_doc: dict[str, DocCounts] | None = None,
    ) -> None:
        self.scenario = scenario
        self.subtasks = subtasks
        self.overall = overall
        self.pool = pool
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.per_doc = {} if per_doc is None else per_doc


def items(subtask: Subtask, doc: Document) -> set[tuple]:
    """Project a document onto the comparable item set of one subtask.

    Types enter an item as their values: a string hashes in C, while an enum
    member hashes through the Python-level `Enum.__hash__`.
    """
    if subtask is Subtask.A:
        return {(kp.start, kp.end) for kp in doc.keyphrases}
    if subtask is Subtask.B:
        return {(kp.start, kp.end, kp.ktype._value_) for kp in doc.keyphrases}
    by_id = doc.keyphrase_by_id()
    result = set()
    for rel in doc.relations:
        s1 = by_id[rel.arg1].span()
        s2 = by_id[rel.arg2].span()
        if rel.rtype is RelationType.SYNONYM_OF:
            result.add((rel.rtype._value_, frozenset((s1, s2))))
        else:
            result.add((rel.rtype._value_, s1, s2))
    return result


def count_matches(subtask: Subtask, gold: Document, pred: Document) -> MatchCounts:
    """Set-semantics exact matching of one subtask's items."""
    if gold.doc_id != pred.doc_id:
        raise ValueError(f"doc_id mismatch: {gold.doc_id!r} vs {pred.doc_id!r}")
    g = items(subtask, gold)
    p = items(subtask, pred)
    return MatchCounts(tp=len(g & p), fp=len(p - g), fn=len(g - p))


def micro_scores(counts: MatchCounts) -> tuple[float, float, float]:
    """(precision, recall, F1) with the 0/0 -> 0 convention.

    F1 is computed as 2 tp / (2 tp + fp + fn), which equals 2PR/(P+R) but
    rounds only once, so hand-derived rational values come out exact.
    """
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    denom = 2 * counts.tp + counts.fp + counts.fn
    f1 = 2 * counts.tp / denom if denom else 0.0
    return p, r, f1


def _score(counts: MatchCounts) -> SubtaskScore:
    p, r, f1 = micro_scores(counts)
    return SubtaskScore(counts, p, r, f1)


def score_scenario(
    gold: Corpus, pred: Corpus, scenario: Scenario, pool: str = "bc"
) -> ScoreReport:
    """Count each gold document's matches once, on all three subtasks, and summarize.

    Predictions must not name documents absent from gold; gold documents with
    no prediction count as empty predictions.
    """
    extra = set(pred.doc_ids()) - set(gold.doc_ids())
    if extra:
        raise ValueError(f"predictions for unknown documents: {sorted(extra)}")
    per_doc: dict[str, DocCounts] = {}
    for doc_id in gold.doc_ids():
        gold_doc = gold[doc_id]
        pred_doc = pred[doc_id] if doc_id in pred else Document(doc_id, gold_doc.text)
        per_doc[doc_id] = tuple(count_matches(task, gold_doc, pred_doc) for task in Subtask)
    return summarize(scenario, per_doc, pool)


_GIVEN = {  # the index in DocCounts of the items a scenario gives, and the warning
    Scenario.S2: (0, "predicted spans deviate from the given boundaries"),
    Scenario.S3: (1, "predicted typed spans deviate from the given ones"),
}


def summarize(
    scenario: Scenario, per_doc: dict[str, DocCounts], pool: str = "bc"
) -> ScoreReport:
    """Micro P/R/F1 of the documents in `per_doc`, from the sum of their counts.

    In scenarios 2 and 3 the spans (and, in 3, the types) are givens.  Items
    are sets, so a prediction deviates from them exactly when its subtask A
    (in 3, B) count has a false positive or negative.  Each such document is
    flagged in `diagnostics`, in `per_doc` order, but scored as submitted.
    """
    if pool not in ("bc", "abc"):
        raise ValueError(f"unknown pooling {pool!r}")
    totals = [MatchCounts()] * 3
    diagnostics: list[str] = []
    given = _GIVEN.get(scenario)
    for doc_id, counts in per_doc.items():
        totals = [total + count for total, count in zip(totals, counts)]
        if given is not None and (counts[given[0]].fp or counts[given[0]].fn):
            diagnostics.append(f"{doc_id}: {given[1]}")
    by_task = dict(zip(Subtask, totals))
    subtasks = {task: _score(by_task[task]) for task in scenario.subtasks}
    pooled = [by_task[t] for t in scenario.subtasks if pool == "abc" or t is not Subtask.A]
    overall = _score(sum(pooled, MatchCounts()))
    return ScoreReport(scenario, subtasks, overall, pool, diagnostics, per_doc)


def report_to_dict(report: ScoreReport) -> dict:
    def row(s: SubtaskScore) -> dict:
        return {
            "tp": s.counts.tp,
            "fp": s.counts.fp,
            "fn": s.counts.fn,
            "p": s.precision,
            "r": s.recall,
            "f1": s.f1,
        }

    return {
        "scenario": report.scenario.value,
        "pooling": report.pool,
        "subtasks": {task.value: row(score) for task, score in report.subtasks.items()},
        "overall": row(report.overall),
    }


def report_to_json(report: ScoreReport) -> str:
    import json  # only JSON output loads it
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_to_text(report: ScoreReport) -> str:
    """Aligned plain-text table; values printed with 4 decimals."""
    pool_label = "B+C" if report.pool == "bc" else "A+B+C"
    lines = [
        f"Scenario {report.scenario.value}  "
        f"(overall pools {pool_label} items; reconstruction, not an official rule)",
        f"{'subtask':<9}{'tp':>7}{'fp':>7}{'fn':>7}"
        f"{'precision':>12}{'recall':>10}{'f1':>10}",
    ]

    def row(name: str, s: SubtaskScore) -> str:
        return (
            f"{name:<9}{s.counts.tp:>7}{s.counts.fp:>7}{s.counts.fn:>7}"
            f"{s.precision:>12.4f}{s.recall:>10.4f}{s.f1:>10.4f}"
        )

    for task in (Subtask.A, Subtask.B, Subtask.C):
        if task in report.subtasks:
            lines.append(row(task.value, report.subtasks[task]))
    lines.append(row("overall", report.overall))
    return "\n".join(lines) + "\n"
