"""Spans around calls into gemkit's layers, recorded from outside gemkit.

``install`` replaces each traced public function by a wrapper on every
``gemkit.*`` module attribute that holds it.  Rebinding only the defining
module would miss calls from modules that imported the name directly
(``from .core import canonical_form``), and calls inside a module go
through its globals, so they are caught as well.  A wrapper records a span
(name, start, end, parent span, op id, raised) only while the tracer is
active; otherwise it calls straight through.  Spans stay in memory until
``write`` stores them at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

NAME, START, END, PARENT, OP, RAISED = range(6)


def _bytes_of_text_arg(counters, name, args, kwargs, result):
    counters[f"{name}.bytes"] += len(args[0].encode())


def _bytes_of_result(counters, name, args, kwargs, result):
    counters[f"{name}.bytes"] += len(result.encode())


def _matrix_size(counters, name, args, kwargs, result):
    rows = args[0]
    counters[f"{name}.entries"] += len(rows) * (len(rows[0]) if rows else 0)
    counters[f"{name}.nonzeros"] += sum(1 for row in rows for x in row if x)


def _classes(counters, name, args, kwargs, result):
    if result is None:
        return
    for attr in ("gems", "entries"):
        if hasattr(result, attr):
            counters[f"{name}.classes"] += len(getattr(result, attr))
            return
    counters[f"{name}.classes"] += len(result) if isinstance(result, list) else 1


_GENERATORS = (
    "standard_sphere",
    "lens_gem",
    "rp2_sum_gem",
    "torus_sum_gem",
    "sphere_times_circle_gem",
    "catalog",
)

# (module, function, span name, extra counters taken from the call)
SPANS = (
    [("gemkit.cli", "main", "cli.main", None)]
    + [("gemkit.io", "loads", "io.parse", _bytes_of_text_arg)]
    + [("gemkit.io", f, "io.emit", _bytes_of_result) for f in ("to_json", "to_dot", "to_text")]
    + [("gemkit.generators", f, "generators", None) for f in _GENERATORS]
    + [
        ("gemkit.search", f, "search", _classes)
        for f in ("search_report", "classify_4_4", "find_gems", "first_gem")
    ]
    + [
        ("gemkit.search", "enumerate_embedding_types", "search.types", None),
        ("gemkit.core", "canonical_form", "core.canonical_form", None),
        ("gemkit.core", "isomorphic", "core.isomorphic", None),
        ("gemkit.core", "residue_graphs", "core.residue_graphs", None),
        ("gemkit.complexes", "homology", "complexes.homology", None),
        ("gemkit.complexes", "build_complex", "complexes.build_complex", None),
        ("gemkit.complexes", "smith_invariant_factors", "complexes.snf", _matrix_size),
        ("gemkit.complexes", "manifold_check", "complexes.manifold_check", None),
        ("gemkit.embedding", "semi_equivelar_report", "embedding.semi_equivelar_report", None),
        ("gemkit.embedding", "regular_genus", "embedding.regular_genus", None),
    ]
)

# Calls counted without a span: one per arrangement evaluated.
COUNTS = (
    ("gemkit.embedding", "semi_equivelar_type", "embedding.arrangements"),
    ("gemkit.embedding", "rho_times_2", "embedding.arrangements"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.active = False
        self.op: Optional[int] = None

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, False])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int, raised: bool = False) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[RAISED] = raised
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, raised=True)
                raise
            tracer.end(idx)
            if note is not None:
                note(tracer.counters, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Rebind every traced function on each loaded gemkit module."""
        mods = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "gemkit" or key.startswith("gemkit."))
        ]
        targets = []
        for mod, fn, name, note in SPANS:
            original = getattr(sys.modules[mod], fn)
            targets.append((original, self.wrap(name, original, note)))
        for mod, fn, name in COUNTS:
            original = getattr(sys.modules[mod], fn)
            targets.append((original, self.count(name, original)))
        for original, wrapper in targets:
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time, errors and counters per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        errors: Counter = Counter()
        for i, span in enumerate(self.spans):
            name = span[NAME]
            calls[name] += 1
            self_ms[name] += (span[END] - span[START] - child_time[i]) * 1e3
            errors[name] += span[RAISED]
        forms_in_search = sum(
            1
            for span in self.spans
            if span[NAME] == "core.canonical_form"
            and span[PARENT] >= 0
            and self.spans[span[PARENT]][NAME] == "search"
        )
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
            out[f"{name}.errors"] = errors[name]
        out.update(self.counters)
        out["search.forms"] = forms_in_search
        if forms_in_search:
            out["search.classes_per_form"] = out.get("search.classes", 0) / forms_in_search
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "raised"],
                       "spans": self.spans}, fh, separators=(",", ":"))
