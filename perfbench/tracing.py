"""Spans around the public functions at revgreedy's module boundaries.

The wrappers are installed from outside the package.  Each wrapped function
is replaced in every revgreedy module that holds it, so a call is seen
whether the caller looks the name up as a module attribute
(`metric.load_instance`), as a module global (`marginal_costs` inside
`reverse_greedy`) or through `from .metric import metric_from_graph`.

Spans live in memory while the job runs and are written out afterwards.
Counts are taken in the wrapper from the call's arguments and result, after
the span has closed, so they add to the tracing overhead and not to the
wrapped layer's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

import numpy as np

# Public functions wrapped, by the module that defines them.
WRAPPED = {
    "cli": ("main",),
    "metric": ("metric_from_graph", "load_instance", "random_metric"),
    "kcenter": ("reverse_greedy", "marginal_costs"),
    "exact": ("exact_opt",),
    "consolidation": ("verify_gamma_decrement", "gamma"),
    "lowerbound": ("build_lower_bound_instance", "verify_schedule",
                   "rebuild_if_lower_bound"),
}


def _note_apsp(args, result):
    return {"n3": args[0].vertex_count ** 3}


def _note_load(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _note_margins(args, result):
    values = np.fromiter(result.values(), dtype=np.float64, count=len(result))
    ties = int(np.count_nonzero(values <= values.min() + args[0].tol()))
    return {"facilities": len(result), "ties": ties}


def _note_premise(args, result):
    return {"premise": result.premise_holds, "complete": result.complete}


def _note_rebuild(args, result):
    return {"hit": result is not None}


# Counts taken per span, for calls that returned normally.
_NOTES = {
    "metric.metric_from_graph": _note_apsp,
    "metric.load_instance": _note_load,
    "kcenter.marginal_costs": _note_margins,
    "consolidation.verify_gamma_decrement": _note_premise,
    "lowerbound.rebuild_if_lower_bound": _note_rebuild,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "error", "note",
                 "child_s")

    def __init__(self, name, parent, command):
        self.name = name
        self.parent = parent
        self.command = command
        self.error = None
        self.note = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "command": self.command,
                "error": self.error, "note": self.note}


class Tracer:
    """Records one span per wrapped call while installed.

    Use as a context manager around the traced job: the wrappers are
    installed on entry and the original functions restored on exit.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._command = -1
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("revgreedy")]
        modules += [importlib.import_module(f"revgreedy.{m}") for m in WRAPPED]
        for home, names in WRAPPED.items():
            home_module = importlib.import_module(f"revgreedy.{home}")
            for name in names:
                original = getattr(home_module, name)
                wrapper = self._wrap(f"{home}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        note_fn = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.main":
                self._command += 1
            span = Span(name, stack[-1] if stack else None, self._command)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            if note_fn is not None:
                span.note = note_fn(args, result)
            return result

        return wrapper

    def write(self, fh, job: int) -> None:
        """Append the spans as JSON lines, tagged with the job's number."""
        for span in self.spans:
            fh.write(json.dumps({"job": job, **span.to_json()}) + "\n")


def _ratio(num: int, den: int) -> float:
    """Useful outcomes over attempts; 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict:
    """Per-layer self times and counts for the spans of one job.

    `wall` is the job's wall time; the self times of all spans should
    account for nearly all of it.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s.self_s for s in group(name))

    def total(name, key):
        return sum(s.note[key] for s in group(name) if s.note)

    opt_done = [s for s in group("exact.exact_opt") if s.error is None]
    opt_refused = [s for s in group("exact.exact_opt")
                   if s.error == "OracleCapError"]
    gammas = group("consolidation.gamma")
    verifies = group("consolidation.verify_gamma_decrement")
    rebuilds = group("lowerbound.rebuild_if_lower_bound")
    steps = len(group("kcenter.marginal_costs"))
    return {
        "cli.self_s": self_s("cli.main"),
        "cli.commands": len(group("cli.main")),
        "metric.apsp_s": self_s("metric.metric_from_graph"),
        "metric.apsp_calls": len(group("metric.metric_from_graph")),
        "metric.apsp_n3": total("metric.metric_from_graph", "n3"),
        "metric.load_s": self_s("metric.load_instance"),
        "metric.load_bytes": total("metric.load_instance", "bytes"),
        "metric.generate_s": self_s("metric.random_metric"),
        "kcenter.marginal_s": self_s("kcenter.marginal_costs"),
        "kcenter.steps": steps,
        "kcenter.engine_self_s": self_s("kcenter.reverse_greedy"),
        "kcenter.runs": len(group("kcenter.reverse_greedy")),
        "kcenter.facility_evals": total("kcenter.marginal_costs", "facilities"),
        "kcenter.tie_mult_mean": _ratio(total("kcenter.marginal_costs", "ties"),
                                        steps),
        "exact.opt_s": self_s("exact.exact_opt"),
        "exact.opt_calls": len(opt_done),
        "exact.opt_max_s": max((s.self_s for s in opt_done), default=0.0),
        "exact.opt_refused": len(opt_refused),
        "consolidation.gamma_s": self_s("consolidation.gamma"),
        "consolidation.gamma_calls": len(gammas),
        "consolidation.gamma_max_s": max((s.self_s for s in gammas), default=0.0),
        "consolidation.verify_self_s": self_s("consolidation.verify_gamma_decrement"),
        "consolidation.premise_ratio": _ratio(
            total("consolidation.verify_gamma_decrement", "premise"), len(verifies)),
        "consolidation.complete_ratio": _ratio(
            total("consolidation.verify_gamma_decrement", "complete"), len(verifies)),
        "lowerbound.build_self_s": self_s("lowerbound.build_lower_bound_instance"),
        "lowerbound.verify_self_s": self_s("lowerbound.verify_schedule"),
        "lowerbound.rebuild_s": sum(s.duration for s in rebuilds),
        "lowerbound.rebuild_calls": len(rebuilds),
        "lowerbound.rebuild_hit_ratio": _ratio(
            total("lowerbound.rebuild_if_lower_bound", "hit"), len(rebuilds)),
        "trace.verdict_s": wall,
        "trace.accounted_frac": sum(s.self_s for s in spans) / wall,
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def timed(name: str) -> bool:
    """Whether a metric comes from the clock, rather than being a count."""
    return name.endswith(("_s", "_frac"))


def median_metrics(per_job: list[dict]) -> dict:
    """Median of each timed metric over the traced jobs; counts from the
    first job."""
    out = {}
    for name, first in per_job[0].items():
        if timed(name):
            out[name] = statistics.median(m[name] for m in per_job)
        else:
            out[name] = first
    return out
