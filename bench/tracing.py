"""Span tracer that measures the henneberg modules from outside.

The tracer wraps the public functions that the benchmark jobs call into each
module.  It rebinds each name where its caller looks it up (for example
``henneberg.cli.build_mesh`` or ``SurfaceMap.__call__``), so nothing in the
package changes.  Every call opens a span with a name, start, end, parent
span and job id.  Spans stay in memory and are written out when the run
ends.  A layer's self time is its span time minus the time of its child
spans.

All traced calls happen on the benchmark's one client thread; the search
pool in ``henneberg.period`` runs no traced function, so a single span stack
is enough.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    job: str
    error: bool = False


class Tracer:
    """Collects spans and per-layer counts for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(self, key: str, value: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def mark_ok(self, name: str):
        """Record that a call of the traced function ``name`` gave a useful
        outcome (its output passed the job's check)."""
        self.add(f"{name}.ok")

    def wrap(self, owner, attr: str, name: str, extra=None, failed=None):
        """Rebind ``owner.attr`` to a traced wrapper reported as ``name``.

        ``extra(args, kwargs, result)`` returns counts added under
        ``name.<key>``; ``failed(result)`` marks a returned value as an error
        (the CLI reports failures through its exit code).  A call made while
        a span of the same name is innermost (recursion, such as the
        per-point loop of ``BjorlingPatch.at``) runs inside that span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if failed is not None and failed(result):
                span.error = True
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    tracer.add(f"{name}.{key}", value)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time in ms and errors."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = {}
        for span, inner in zip(self.spans, child):
            t = totals.setdefault(span.name, {"calls": 0, "self_ms": 0.0, "errors": 0})
            t["calls"] += 1
            t["self_ms"] += (span.end - span.start - inner) * 1e3
            t["errors"] += int(span.error)
        return totals

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# the traced layers
# ---------------------------------------------------------------------------


def _points(args, kwargs, result):
    return {"points": int(result.size // 3)}


def _vertices(args, kwargs, result):
    return {"vertices": len(result.vertices)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _search(args, kwargs, result):
    n_r, n_a = kwargs.get("n_radial", 33), kwargs.get("n_angular", 48)
    return {"grid_points": n_r * n_r * n_a * n_a, "hits": len(result)}


def _nonzero_exit(code):
    return code != 0


#: traced function name -> extra counts it reports (besides calls, self_ms
#: and errors); ok_ratio comes from Tracer.mark_ok calls in the job checks
LAYERS = {
    "cli.main": (),
    "algebra.expand_product": (),
    "weierstrass.stability_report": (),
    "surfaces.surface_integrated": (),
    "surfaces.eval": ("points",),
    "meshing.build_mesh": ("vertices",),
    "meshing.write_obj": ("bytes",),
    "meshing.write_ply": ("bytes",),
    "meshing.read_obj": (),
    "meshing.read_ply": (),
    "period.brute_search_m1": ("grid_points", "hits"),
    "period.continue_from": ("ok_ratio",),
    "period.family_theta2": (),
    "period.period_residuals": (),
    "reports.verification_report": (),
    "geometry.enumerate_isometries": (),
    "geometry.bjorling_solve": (),
    "geometry.BjorlingPatch.at": ("points",),
    "geometry.cusp_count": ("ok_ratio",),
}


def install(tracer: Tracer):
    """Wrap every layer in LAYERS where the CLI, the library or the
    benchmark jobs call it."""
    import henneberg.cli as cli
    import henneberg.geometry as geometry
    import henneberg.meshing as meshing
    import henneberg.reports as reports
    import henneberg.weierstrass as weierstrass
    from henneberg.geometry import BjorlingPatch
    from henneberg.surfaces import SurfaceMap

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main", failed=_nonzero_exit)
    wrap(weierstrass, "expand_product", "algebra.expand_product")
    wrap(reports, "stability_report", "weierstrass.stability_report")
    wrap(cli, "surface_integrated", "surfaces.surface_integrated")
    wrap(SurfaceMap, "__call__", "surfaces.eval", extra=_points)
    wrap(cli, "build_mesh", "meshing.build_mesh", extra=_vertices)
    wrap(cli, "write_obj", "meshing.write_obj", extra=_bytes_written)
    wrap(cli, "write_ply", "meshing.write_ply", extra=_bytes_written)
    wrap(meshing, "read_obj", "meshing.read_obj")
    wrap(meshing, "read_ply", "meshing.read_ply")
    wrap(cli, "brute_search_m1", "period.brute_search_m1", extra=_search)
    wrap(cli, "continue_from", "period.continue_from")
    wrap(cli, "family_theta2", "period.family_theta2")
    wrap(cli, "period_residuals", "period.period_residuals")
    wrap(reports, "period_residuals", "period.period_residuals")
    wrap(cli, "verification_report", "reports.verification_report")
    wrap(reports, "enumerate_isometries", "geometry.enumerate_isometries")
    wrap(cli, "bjorling_solve", "geometry.bjorling_solve")
    wrap(BjorlingPatch, "at", "geometry.BjorlingPatch.at", extra=_points)
    wrap(geometry, "cusp_count", "geometry.cusp_count")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple]:
    """Every per-layer metric as (value, unit), divided by the number of
    passes over the deck so that runs of different length compare."""
    totals = tracer.layer_totals()
    out = {}
    for name, extras in LAYERS.items():
        t = totals.get(name, {"calls": 0, "self_ms": 0.0, "errors": 0})
        out[f"{name}.calls"] = (t["calls"] / passes, "count/deck")
        out[f"{name}.self_ms"] = (t["self_ms"] / passes, "ms/deck")
        out[f"{name}.errors"] = (t["errors"] / passes, "count/deck")
        for key in extras:
            if key == "ok_ratio":
                ok = tracer.counts.get(f"{name}.ok", 0.0)
                out[f"{name}.ok_ratio"] = (ok / t["calls"] if t["calls"] else 0.0, "ratio")
            else:
                unit = "B/deck" if key == "bytes" else "count/deck"
                out[f"{name}.{key}"] = (tracer.counts.get(f"{name}.{key}", 0.0) / passes, unit)
    return out
