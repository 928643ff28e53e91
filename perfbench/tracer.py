"""Span tracer that wraps cfeas functions from outside the package.

The package imports functions by name (``from .geometry import project``), so
a wrapper must replace the name in the module that calls it, not only where
the function is defined.  ``PATCH_SITES`` lists every such call site on the
solve path together with the span name its calls are recorded under.

A span is ``[site, start_ns, end_ns, parent, solve_id, error]``.  Spans stay
in memory; ``layer_metrics`` reduces them, ``write_spans_csv`` writes them.
"""
from __future__ import annotations

import csv
import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute) -> span name.  The layer is the span name's prefix.
PATCH_SITES = {
    ("cfeas.solver", "solve"): "solver.solve",
    ("cfeas.solver", "distance"): "solver.stop_gap",
    ("cfeas.solver", "circumcentered_step"): "operators.step",
    ("cfeas.solver", "project"): "geometry.project",  # MAP's algorithmic projections
    ("cfeas.operators", "apply_kernel"): "operators.kernel",
    ("cfeas.operators", "centralize"): "operators.centralize",
    ("cfeas.operators", "project"): "geometry.project",
    ("cfeas.operators", "circumcenter"): "circumcentering.circumcenter",
    ("cfeas.geometry", "project"): "geometry.project",  # reached through distance
    ("cfeas.geometry", "project_psd"): "geometry.psd",
    ("cfeas.geometry", "project_ellipsoid_multiplier"): "geometry.ellipsoid",
    ("cfeas.bench", "write_trace_csv"): "bench.io",
    ("cfeas.bench", "write_summary_csv"): "bench.io",
    ("cfeas.bench", "emit_convergence_plotdata"): "bench.io",
}

SITE, START, END, PARENT, SOLVE, ERROR = range(6)

# a call at this site outside any other span starts a new solve id
ROOT_SITE = "cfeas.solver.solve"

# errors a projection raises when it cannot deliver a point
PROJECTION_FAILURES = ("NonconvergedProjection", "EigenFailure")


class Tracer:
    """Records one span per call of every patched function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._solves = 0

    def _wrap(self, fn, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        opens_solve = site == ROOT_SITE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                solve_id = spans[parent][SOLVE]
            else:
                parent = -1
                solve_id = -1
                if opens_solve:
                    solve_id = self._solves
                    self._solves += 1
            span = [site, clock(), 0, parent, solve_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore it."""
        originals = []
        try:
            for module_name, attr in PATCH_SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{module_name}.{attr}"))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()


def span_name(site: str) -> str:
    module_name, attr = site.rsplit(".", 1)
    return PATCH_SITES[(module_name, attr)]


def self_times_ns(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def totals_by_name(spans):
    """(calls, inclusive ns, self ns, errors) per span name."""
    stats: dict = {}
    for s, own in zip(spans, self_times_ns(spans)):
        name = span_name(s[SITE])
        st = stats.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "errors": {}})
        st["calls"] += 1
        st["incl_ns"] += s[END] - s[START]
        st["self_ns"] += own
        if s[ERROR] is not None:
            st["errors"][s[ERROR]] = st["errors"].get(s[ERROR], 0) + 1
    return stats


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    stats = totals_by_name(spans)
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "errors": {}}

    def get(name):
        return stats.get(name, empty)

    def ms(ns):
        return ns * 1e-6

    psd, ell, proj = get("geometry.psd"), get("geometry.ellipsoid"), get("geometry.project")
    circ, step = get("circumcentering.circumcenter"), get("operators.step")
    solve, gap, io = get("solver.solve"), get("solver.stop_gap"), get("bench.io")
    failures = sum(proj["errors"].get(e, 0) for e in PROJECTION_FAILURES)
    return {
        "geometry.psd.calls": psd["calls"],
        "geometry.psd.self_ms": ms(psd["self_ns"]),
        "geometry.ellipsoid.calls": ell["calls"],
        "geometry.ellipsoid.self_ms": ms(ell["self_ns"]),
        "geometry.ellipsoid.us_per_call": ell["self_ns"] * 1e-3 / ell["calls"]
        if ell["calls"]
        else 0.0,
        "geometry.project.self_ms": ms(proj["self_ns"]),
        "geometry.failures": failures,
        "circumcentering.calls": circ["calls"],
        "circumcentering.self_ms": ms(circ["self_ns"]),
        "circumcentering.degenerate": circ["errors"].get("DegenerateCircumcenter", 0),
        "operators.circumcenter_share": circ["calls"] / step["calls"] if step["calls"] else 0.0,
        "operators.step.calls": step["calls"],
        "operators.step.self_ms": ms(step["self_ns"]),
        "operators.kernel_ms": ms(get("operators.kernel")["incl_ns"]),
        "operators.centralize_ms": ms(get("operators.centralize")["incl_ns"]),
        "operators.project.calls": sum(
            1 for s in spans if s[SITE] == "cfeas.operators.project"
        ),
        "solver.drive.self_ms": ms(solve["self_ns"]),
        "solver.stop_gap.calls": gap["calls"],
        "solver.stop_gap_ms": ms(gap["incl_ns"]),
        "solver.diag_share": gap["incl_ns"] / solve["incl_ns"] if solve["incl_ns"] else 0.0,
        "bench.io_ms": ms(io["incl_ns"]),
    }


def self_shares(spans) -> dict:
    """Share of the traced solve time taken by each span name's self time."""
    own: dict = {}
    for s, ns in zip(spans, self_times_ns(spans)):
        if s[SOLVE] >= 0:
            name = span_name(s[SITE])
            own[name] = own.get(name, 0) + ns
    total = sum(own.values()) or 1
    return {name: ns / total for name, ns in sorted(own.items())}


def write_spans_csv(spans, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "site", "start_ns", "end_ns", "parent", "solve_id", "error"])
        for i, s in enumerate(spans):
            writer.writerow(
                [i, span_name(s[SITE]), s[SITE], s[START], s[END], s[PARENT], s[SOLVE], s[ERROR] or ""]
            )
