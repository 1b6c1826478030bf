"""Spans around gibem's module boundaries, installed from outside.

The benchmark does not edit the program. It replaces the names that gibem
modules look up at call time (``gibem.solve.assemble``,
``gibem.assembly.kelvin_T_many``, ...) and a few class methods with
wrappers that record a span per call and count the work passed in. Spans
stay in memory; self time is a span's duration minus the durations of the
spans it directly caused. ``Tracer`` is a context manager, and leaving it
puts every original object back.
"""
from __future__ import annotations

import functools
import logging
import time
from collections import Counter, defaultdict

import gibem.assembly
import gibem.cli
import gibem.geometry
import gibem.model
import gibem.modelio
import gibem.solve


def _count_quadtree(counts, args, result):
    regions_in, regions_out = len(args[0]), len(result)
    counts["quadrature.quadtree_refine.splits"] += (regions_out - regions_in) // 3
    counts["quadrature.quadtree_refine.unsplit"] += regions_out == regions_in


# (owner, attribute, span name, counter(counts, args, result) or None)
SITES = (
    (gibem.cli, "parse_model", "modelio.parse_model", None),
    (gibem.cli, "solve_model", "solve.solve_model",
     lambda c, a, r: c.update({"solve.dof": r.dof_count})),
    (gibem.cli, "write_vtk", "modelio.write_vtk", None),
    (gibem.cli, "write_trace", "modelio.write_trace", None),
    (gibem.solve, "collocation_points", "assembly.collocation_points",
     lambda c, a, r: c.update({"assembly.nodes": len(r)})),
    (gibem.solve, "assemble", "assembly.assemble", None),
    (gibem.solve, "solve", "solve.solve", None),
    (gibem.solve, "pin_rigid_motion", "solve.pin_rigid_motion", None),
    (gibem.solve, "remove_rigid_motion", "solve.remove_rigid_motion", None),
    (gibem.assembly, "kelvin_T_many", "kernels.kelvin_T_many",
     lambda c, a, r: c.update({"kernels.kelvin_T_many.points": len(r),
                               "assembly.pairs": 1})),
    (gibem.assembly, "kelvin_U_many", "kernels.kelvin_U_many",
     lambda c, a, r: c.update({"kernels.kelvin_U_many.points": len(r)})),
    (gibem.assembly, "quadtree_refine", "quadrature.quadtree_refine",
     _count_quadtree),
    (gibem.assembly, "singular_quadrature_points",
     "quadrature.singular_quadrature_points", None),
    (gibem.assembly, "free_term_rigid_body", "assembly.free_term_rigid_body",
     None),
    (gibem.geometry.NurbsPatch, "frames_at", "geometry.frames_at",
     lambda c, a, r: c.update({"geometry.frames_at.points": len(r)})),
    (gibem.geometry.NurbsPatch, "points_at", "geometry.points_at",
     lambda c, a, r: c.update({"geometry.points_at.points": len(r)})),
    (gibem.geometry.TrimmedPatch, "frames_at", "geometry.trimmed.frames_at",
     None),
    (gibem.geometry.TrimmedPatch, "points_at", "geometry.trimmed.points_at",
     None),
    (gibem.model.FieldSpacePair, "values", "model.field_values",
     lambda c, a, r: c.update({"model.field_values.points": len(r)})),
    (gibem.modelio, "evaluate_displacement_many",
     "solve.evaluate_displacement_many",
     lambda c, a, r: c.update({"solve.evaluate_displacement_many.points":
                               len(r)})),
    (gibem.model, "bspline_basis_many", "splines.basis_many",
     lambda c, a, r: c.update({"splines.basis_many.points": len(r)})),
    (gibem.geometry, "bspline_basis_many", "splines.basis_many",
     lambda c, a, r: c.update({"splines.basis_many.points": len(r)})),
    (gibem.geometry, "bspline_basis_derivs_many", "splines.basis_derivs_many",
     lambda c, a, r: c.update({"splines.basis_derivs_many.points": len(r)})),
)

QUADRATURE_LOGGER = "gibem.quadrature"


def original(owner, attribute):
    """The object a site holds, looked up without binding methods."""
    return vars(owner)[attribute]


class _CapHits(logging.Handler):
    """Counts regions kept at the quad-tree depth cap, from its warning."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "depth cap" in str(record.msg) and len(record.args or ()) >= 2:
            self.counts["quadrature.quadtree_refine.cap_hits"] += \
                int(record.args[1])


class Tracer:
    """Records spans and work counts while installed.

    ``spans`` holds [name, start, end, parent index] rows in start order
    (parent -1 for calls made directly by the CLI), ``self_time`` the summed
    self time per span name, ``calls`` the call count per span name, and
    ``counts`` the work counters.
    """

    def __init__(self):
        self.spans = []
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._saved = []
        self._cap_hits = _CapHits(self.counts)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        self_time, calls, counts = self.self_time, self.calls, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            row = [name, 0.0, 0.0, stack[-1][0] if stack else -1]
            spans.append(row)
            frame = [index, 0.0]
            stack.append(frame)
            row[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = end = clock()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attribute, name, counter in SITES:
            fn = original(owner, attribute)
            self._saved.append((owner, attribute, fn))
            setattr(owner, attribute, self._wrap(name, fn, counter))
        logging.getLogger(QUADRATURE_LOGGER).addHandler(self._cap_hits)
        return self

    def __exit__(self, *exc):
        logging.getLogger(QUADRATURE_LOGGER).removeHandler(self._cap_hits)
        while self._saved:
            owner, attribute, fn = self._saved.pop()
            setattr(owner, attribute, fn)
        return False

    def top_level_time(self):
        """Summed duration of the spans the CLI called directly."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == -1)


# Per-layer metrics: (metric name, unit, function of (tracer, wall time)).
def _self(span):
    return lambda tr, wall: tr.self_time.get(span, 0.0)


def _calls(span):
    return lambda tr, wall: tr.calls.get(span, 0)


def _count(key):
    return lambda tr, wall: tr.counts.get(key, 0)


def _unsplit_ratio(tr, wall):
    calls = tr.calls.get("quadrature.quadtree_refine", 0)
    return tr.counts.get("quadrature.quadtree_refine.unsplit", 0) / max(calls, 1)


LAYER_METRICS = (
    ("assembly.collocation_points.s", "s", _self("assembly.collocation_points")),
    ("assembly.assemble.self_s", "s", _self("assembly.assemble")),
    ("assembly.free_term_rigid_body.s", "s",
     _self("assembly.free_term_rigid_body")),
    ("assembly.nodes", "count", _count("assembly.nodes")),
    ("assembly.pairs", "count", _count("assembly.pairs")),
    ("kernels.kelvin_T_many.s", "s", _self("kernels.kelvin_T_many")),
    ("kernels.kelvin_T_many.points", "count",
     _count("kernels.kelvin_T_many.points")),
    ("kernels.kelvin_U_many.s", "s", _self("kernels.kelvin_U_many")),
    ("kernels.kelvin_U_many.points", "count",
     _count("kernels.kelvin_U_many.points")),
    ("quadrature.quadtree_refine.s", "s", _self("quadrature.quadtree_refine")),
    ("quadrature.quadtree_refine.calls", "count",
     _calls("quadrature.quadtree_refine")),
    ("quadrature.quadtree_refine.splits", "count",
     _count("quadrature.quadtree_refine.splits")),
    ("quadrature.quadtree_refine.unsplit_ratio", "ratio", _unsplit_ratio),
    ("quadrature.quadtree_refine.cap_hits", "count",
     _count("quadrature.quadtree_refine.cap_hits")),
    ("quadrature.singular_quadrature_points.s", "s",
     _self("quadrature.singular_quadrature_points")),
    ("quadrature.singular_quadrature_points.calls", "count",
     _calls("quadrature.singular_quadrature_points")),
    ("geometry.frames_at.s", "s", _self("geometry.frames_at")),
    ("geometry.frames_at.points", "count", _count("geometry.frames_at.points")),
    ("geometry.points_at.s", "s", _self("geometry.points_at")),
    ("geometry.points_at.points", "count", _count("geometry.points_at.points")),
    ("geometry.trimmed.frames_at.s", "s", _self("geometry.trimmed.frames_at")),
    ("geometry.trimmed.points_at.s", "s", _self("geometry.trimmed.points_at")),
    ("model.field_values.s", "s", _self("model.field_values")),
    ("model.field_values.points", "count", _count("model.field_values.points")),
    ("splines.basis_many.s", "s", _self("splines.basis_many")),
    ("splines.basis_many.points", "count", _count("splines.basis_many.points")),
    ("splines.basis_derivs_many.s", "s", _self("splines.basis_derivs_many")),
    ("splines.basis_derivs_many.points", "count",
     _count("splines.basis_derivs_many.points")),
    ("solve.solve_model.s", "s", _self("solve.solve_model")),
    ("solve.solve.s", "s", _self("solve.solve")),
    ("solve.pin_rigid_motion.s", "s", _self("solve.pin_rigid_motion")),
    ("solve.remove_rigid_motion.s", "s", _self("solve.remove_rigid_motion")),
    ("solve.evaluate_displacement_many.s", "s",
     _self("solve.evaluate_displacement_many")),
    ("solve.evaluate_displacement_many.points", "count",
     _count("solve.evaluate_displacement_many.points")),
    ("solve.dof", "count", _count("solve.dof")),
    ("modelio.parse_model.s", "s", _self("modelio.parse_model")),
    ("modelio.write_vtk.s", "s", _self("modelio.write_vtk")),
    ("modelio.write_trace.s", "s", _self("modelio.write_trace")),
    ("cli.self_s", "s", lambda tr, wall: wall - tr.top_level_time()),
)

# Work counters that must repeat exactly between traced calls.
WORK_COUNTERS = tuple(name for name, unit, _ in LAYER_METRICS
                      if unit == "count")
