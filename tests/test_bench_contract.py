"""The names and call shapes the benchmark in ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps module globals and class attributes of gibem
by name and counts work from their arguments and results. It is read here,
not changed, so a change of the program that would break it fails here.
"""
import importlib.util
from collections import Counter
from pathlib import Path

import gibem.assembly
import gibem.quadrature
from gibem.assembly import assemble
from gibem.model import build_trimmed_cube_model
from gibem.quadrature import PAIR

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves_through_vars_of_its_owner():
    tracer = load_tracer()
    for owner, attribute, _, _ in tracer.SITES:
        assert callable(vars(owner)[attribute]), (owner, attribute)


def test_quadtree_takes_and_returns_one_entry_per_pair(monkeypatch):
    """The tracer counts a quad-tree call's splits as (pairs out - pairs in)
    // 3 from ``len`` of its first argument and of its result, so both hold
    one PAIR record per pair; assembly calls it, and
    ``singular_quadrature_points``, through the globals the tracer
    replaces."""
    tracer = load_tracer()
    calls, splits = [], []
    refine, split = gibem.assembly.quadtree_refine, gibem.quadrature.split

    def recording_refine(*args, **kwargs):
        calls.append((args[0], refine(*args, **kwargs)))
        return calls[-1][1]

    def counting_split(pairs):
        splits.append(len(pairs))
        return split(pairs)

    monkeypatch.setattr(gibem.assembly, "quadtree_refine", recording_refine)
    monkeypatch.setattr(gibem.quadrature, "split", counting_split)
    model = build_trimmed_cube_model(2, 0.4)
    with tracer.Tracer() as traced:
        assemble(model)
    assert len(calls) == len(model.patches)
    assert traced.calls["quadrature.quadtree_refine"] == len(calls)
    assert traced.calls["quadrature.singular_quadrature_points"] > 0
    for records in (record for call in calls for record in call):
        assert records.dtype == PAIR and records.ndim == 1
    counts = Counter()
    for pairs, kept in calls:
        assert (len(kept) - len(pairs)) % 3 == 0
        tracer._count_quadtree(counts, (pairs,), kept)
    assert counts["quadrature.quadtree_refine.splits"] == sum(splits) > 0
    assert traced.counts["quadrature.quadtree_refine.splits"] == sum(splits)
