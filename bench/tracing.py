"""In-process tracing of kpeval's public functions for the benchmark.

`Tracer.install()` replaces each traced function at every name under which a
kpeval module binds it (``canonicalize_document`` sits in ``model``,
``codec``, ``baselines`` and the package itself), so a call made through any
of those names, including a module-internal call, opens a span and nested
calls become child spans.  `uninstall()` puts the original objects back.

Spans are kept in memory as (id, parent, name, start, end), in wall-clock
seconds, and written out when the run ends.  A span's self time is its
duration minus the durations of its children, so the self times of a call
tree add up to the duration of its root.  The spans of a `--jobs` worker
thread hang under the span open on the main thread when the worker starts.
Two workers overlap in time, so their parent's self time comes out low by
that overlap; the sum over the tree stays exact.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from pathlib import Path

# module -> public functions traced; "<module>.<function>" names the layer.
LAYERS = {
    "brat": ("load_corpus", "load_predictions", "parse_document_pair",
             "serialize_annotations", "save_corpus"),
    "model": ("validate_document", "drop_invalid", "canonicalize_document"),
    "codec": ("tokenize_document", "encode_document", "decode_document",
              "sequences_to_tsv", "sequences_from_tsv"),
    "scoring": ("score_scenario", "count_matches"),
    "baselines": ("oracle_predict", "random_predict", "gazetteer_build",
                  "gazetteer_predict"),
    "analytics": ("corpus_stats", "agreement_report"),
    "cli": ("run_cli",),
}

# Layers whose call count shows repeated work; the others report self time only.
COUNTED = (
    "brat.parse_document_pair", "brat.serialize_annotations",
    "model.validate_document", "model.drop_invalid", "model.canonicalize_document",
    "codec.tokenize_document", "codec.encode_document", "codec.decode_document",
    "scoring.score_scenario", "scoring.count_matches", "cli.run_cli",
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.spans_in = 0    # keyphrases offered to encode_document
        self.spans_kept = 0  # keyphrases it placed on tokens
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = [0]  # ids of open spans; 0 is none
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        local = self._local
        main_stack = self._main_stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:  # a worker thread's first call
                stack = local.stack = [main_stack[-1]]
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if name == "codec.encode_document":
                outcome = result[1]
                self.spans_in += len(outcome.aligned) + len(outcome.dropped_spans)
                self.spans_kept += len(outcome.aligned)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kpeval" or n.startswith("kpeval."))]
        for mod, fns in LAYERS.items():
            home = importlib.import_module(f"kpeval.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.spans_in = self.spans_kept = 0

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self time (s) and call count over the recorded spans."""
        child: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        calls = dict.fromkeys(LAYER_NAMES, 0)
        for span_id, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child.get(span_id, 0.0)
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for span in sorted(self.spans):
                out.write("%d\t%d\t%s\t%.9f\t%.9f\n" % span)
