"""Traced-run wrappers: spans and counts around each layer's public names.

``optimizer`` and ``cli`` bind the names they call at import time, so each
wrapper replaces a name in the namespace of the module that calls it; a
wrapper on the defining module would see none of those calls.  Spans stay in
memory until the run ends.  Untraced runs never construct a Tracer.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MISSING = object()

# span record fields, in order
SPAN_FIELDS = ("id", "parent", "request", "name", "start", "end", "items", "wide")


def _solve_span_name(bound: inspect.BoundArguments) -> str:
    return f"optimizer.solve.{bound.arguments['class_tag']}"


# (calling module, name there, span name, or a function of the bound call
# arguments that returns one; whether the result's length is the work done)
TARGETS = (
    ("optimizer", "solve", _solve_span_name, False),
    ("optimizer", "schemes", "coloring.schemes", True),
    ("optimizer", "same_color_offsets", "coloring.same_color_offsets", True),
    ("optimizer", "canonical_triple", "coloring.canonical_triple", False),
    ("optimizer", "hexagon_from_gaps", "geometry.hexagon_from_gaps", False),
    ("optimizer", "stable_dsq_rational", "analysis.stable_dsq_rational", False),
    ("optimizer", "regular_dsq", "evaluator.closed_form", False),
    ("optimizer", "cubic_f", "evaluator.closed_form", False),
    ("optimizer", "quartic_dsq", "evaluator.closed_form", False),
    ("cli", "solve", _solve_span_name, False),
    ("cli", "solve_all", "optimizer.solve_all", False),
)
# spans of this name record whether the call widened the offset window
_WINDOWED = "coloring.same_color_offsets"

CLASSES = ("regular", "semi_regular", "rectilinear")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent and request.

    The request is the color count k of the outermost solve the span runs in.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._default_slack = 1

    def _open(self, name: str, request=None) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent][2] is not None:
            request = self.spans[parent][2]
        rec = [len(self.spans), parent, request, name, 0.0, 0.0, None, False]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request=None):
        """A span around a call the benchmark itself makes."""
        rec = self._open(name, request)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name, counts_items: bool):
        sig = inspect.signature(fn)
        named = callable(name)
        windowed = name == _WINDOWED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if named or windowed or "k" in sig.parameters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            request = bound.arguments.get("k") if bound is not None else None
            rec = tracer._open(name(bound) if named else name, request)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counts_items:
                rec[6] = len(out)
            if windowed:
                rec[7] = bound.arguments["slack"] > tracer._default_slack
            return out

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every target name found in ``modules``; restore them all on exit.

        ``modules`` maps "optimizer" and "cli" to the imported modules.  A
        name that no longer exists is listed in ``absent`` and skipped.
        """
        options = getattr(modules["optimizer"], "SolveOptions", None)
        self._default_slack = getattr(options(), "enumeration_slack", 1) if options else 1
        saved = []
        try:
            for modname, attr, name, counts_items in TARGETS:
                mod = modules[modname]
                orig = getattr(mod, attr, _MISSING)
                if orig is _MISSING:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name, counts_items))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _missing(self, *attrs: str) -> bool:
        return any(a in self.absent for a in attrs)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans, as name -> (value, unit).

        A metric whose wrapped name was absent is left out.
        """
        by_name = defaultdict(list)
        for rec in self.spans:
            by_name[rec[3]].append(rec)

        def busy(recs) -> float:
            return sum(r[5] - r[4] for r in recs)

        def items(recs) -> int:
            return sum(r[6] or 0 for r in recs)

        out: dict[str, tuple[float, str]] = {}
        if not self._missing("optimizer.solve", "cli.solve"):
            for cls in CLASSES:
                recs = by_name[f"optimizer.solve.{cls}"]
                out[f"optimizer.solve.{cls}.calls"] = (len(recs), "count")
                out[f"optimizer.solve.{cls}.busy_s"] = (busy(recs), "s")
            if not self._missing("optimizer.schemes"):
                rect = by_name["optimizer.solve.rectilinear"]
                rect_ids = {r[0] for r in rect}
                enumerated = items(r for r in by_name["coloring.schemes"] if r[1] in rect_ids)
                out["optimizer.solve.rectilinear.s_per_scheme"] = (
                    busy(rect) / enumerated if enumerated else 0.0, "s")
        if not self._missing("optimizer.schemes"):
            out["coloring.schemes.items"] = (items(by_name["coloring.schemes"]), "count")
        if not self._missing("optimizer.same_color_offsets"):
            recs = by_name["coloring.same_color_offsets"]
            wide = [r for r in recs if r[7]]
            out["coloring.same_color_offsets.calls"] = (len(recs), "count")
            out["coloring.same_color_offsets.items"] = (items(recs), "count")
            out["coloring.same_color_offsets.busy_s"] = (busy(recs), "s")
            out["coloring.same_color_offsets.wide_calls"] = (len(wide), "count")
            out["coloring.same_color_offsets.wide_items"] = (items(wide), "count")
        if not self._missing("optimizer.canonical_triple"):
            recs = by_name["coloring.canonical_triple"]
            out["coloring.canonical_triple.calls"] = (len(recs), "count")
            out["coloring.canonical_triple.busy_s"] = (busy(recs), "s")
        if not self._missing("optimizer.hexagon_from_gaps"):
            out["geometry.hexagon_from_gaps.calls"] = (
                len(by_name["geometry.hexagon_from_gaps"]), "count")
        if not self._missing("optimizer.stable_dsq_rational"):
            recs = by_name["analysis.stable_dsq_rational"]
            out["analysis.stable_dsq_rational.calls"] = (len(recs), "count")
            out["analysis.stable_dsq_rational.busy_s"] = (busy(recs), "s")
        if not self._missing("optimizer.regular_dsq", "optimizer.cubic_f", "optimizer.quartic_dsq"):
            recs = by_name["evaluator.closed_form"]
            out["evaluator.closed_form.calls"] = (len(recs), "count")
            out["evaluator.closed_form.busy_s"] = (busy(recs), "s")
        mains = by_name["cli.main"]
        main_ids = {r[0] for r in mains}
        inner = busy(r for r in self.spans if r[1] in main_ids)
        out["cli.main.busy_s"] = (busy(mains), "s")
        out["cli.self_s"] = (busy(mains) - inner, "s")
        return out
