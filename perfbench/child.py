"""One benchmark run: repeated ``gibem solve`` calls in this one process.

Started by ``run.py`` with the thread pinning variables set and the
checkout's ``src`` on ``PYTHONPATH``. Every call runs ``gibem.cli.main``
on the generated model, is timed from the call to its return (parse to the
last artifact written), and has its artifacts checked afterwards.
Untraced calls run under a ``Pacer`` (``pace.py``), which gives their time
at the reference pace as well as their wall time. With ``--trace 1``
untraced and traced calls alternate, so the tracing overhead is the
difference of their medians. Prints one JSON object as its last line of
standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

import gibem.cli
from gibem.modelio import parse_model
from gibem.solve import remove_rigid_motion

from pace import Pacer
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, exact_strain

# Tolerances a call must meet to count as passed. Today the relative
# residual is ~1e-15 and the error against the exact field 1e-6..1e-8.
RESIDUAL_TOL = 1e-10
ERROR_TOL = 1e-5


def _read_csv_rows(path):
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        return [line for line in handle if line.strip()]


def _vtk_point_rows(path):
    """(count in the POINTS header, point rows that follow it)."""
    declared, rows = None, 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if declared is not None:
                if line.startswith("CELLS"):
                    break
                rows += 1
            elif line.startswith("POINTS"):
                declared = int(line.split()[1])
    return declared, rows


def check_artifacts(workload, model, out_dir, exit_code):
    """Raise ValueError on a bad call; return the exact-field error digits."""
    if exit_code != 0:
        raise ValueError(f"exit code {exit_code}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if not report["residual"] <= RESIDUAL_TOL:
        raise ValueError(f"residual {report['residual']} > {RESIDUAL_TOL}")
    rows = _read_csv_rows(out_dir / "coefficients.csv")
    if len(rows) != report["nodes"] or report["dof_count"] != 3 * len(rows):
        raise ValueError(f"{len(rows)} coefficient rows, report says "
                         f"{report['nodes']} nodes")
    table = np.array([[float(c) for c in row.split(",")] for row in rows])
    positions, coeffs = table[:, 1:4], table[:, 4:7]
    exact = positions @ exact_strain(model).T
    diff = remove_rigid_motion(SimpleNamespace(positions=positions),
                               (coeffs - exact).ravel(),
                               model.symmetry_planes)
    error = float(np.abs(diff).max() / np.abs(exact).max())
    if not error <= ERROR_TOL:
        raise ValueError(f"error {error:.3e} against the exact field > "
                         f"{ERROR_TOL}")

    k = model.config.viz_samples
    declared, point_rows = _vtk_point_rows(out_dir / "surface.vtk")
    if declared != model.n_patches * k * k or point_rows != declared:
        raise ValueError(f"VTK declares {declared} points and has "
                         f"{point_rows}; expected {model.n_patches * k * k}")
    for selector in workload.trace_selectors(model):
        patch, edge, component, samples = selector.split(":")
        name = f"trace_{patch}_{edge}_{component}.csv"
        found = len(_read_csv_rows(out_dir / name))
        if found != int(samples):
            raise ValueError(f"{name} has {found} rows, expected {samples}")
    return -math.log10(max(error, 1e-300))


def machine(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "seed": seed,
    }


def call_cli(argv, tracer=None):
    """(exit code, wall seconds, pacer) of one ``gibem solve`` call.

    A traced call is not paced (the probes would land in its spans), and
    its pacer is None. An untraced call's wall seconds leave out the time
    its probes took.
    """
    sink = io.StringIO()
    timing = tracer if tracer is not None else Pacer()
    with contextlib.redirect_stdout(sink), timing:
        started = time.perf_counter()
        try:
            code = gibem.cli.main(argv)
        finally:
            wall = time.perf_counter() - started
    if tracer is not None:
        return code, wall, None
    return code, wall - timing.spent, timing


def run(workload, model_path, work, seconds, trace):
    """Call the CLI until ``seconds`` are used; return the result dict."""
    model = parse_model(model_path)
    out_dir = work / "out"
    attempted = failed = 0
    walls = {False: [], True: []}
    paced, probes = [], []
    digits, layers, spans = [], {}, None
    begin = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        tracer = Tracer() if traced else None
        argv = workload.cli_args(model, model_path, out_dir)
        call_started = time.perf_counter()
        attempted += 1
        try:
            code, wall, pacer = call_cli(argv, tracer)
            digits.append(check_artifacts(workload, model, out_dir, code))
        except Exception:  # any failure of a call counts against it
            failed += 1
            traceback.print_exc()
        else:
            walls[traced].append(wall)
            if not traced:
                paced.append(pacer.paced(wall))
                probes.append(pacer.probe_s)
            if traced:
                written = sum(p.stat().st_size for p in out_dir.iterdir())
                for name, unit, value in LAYER_METRICS:
                    layers.setdefault(name, []).append(
                        value(tracer, wall))
                layers.setdefault("modelio.bytes_written", []).append(
                    written)
                spans = tracer.spans
        used = time.perf_counter() - begin
        last = time.perf_counter() - call_started
        enough = attempted >= (2 if trace else 1)
        if enough and used + last > seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    if trace and spans is not None:
        (work / "spans.json").write_text(json.dumps(spans))
    metrics = {}
    if not trace and walls[False]:
        metrics["paced_run_s"] = (statistics.median(paced), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["error_digits"] = (statistics.median(digits), "digits")
    if trace and walls[True] and walls[False]:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        units["modelio.bytes_written"] = "bytes"
        for name, values in layers.items():
            # counters are reported as observed (they repeat exactly)
            middle = (statistics.median if units[name] == "s"
                      else statistics.median_low)
            metrics[name] = (middle(values), units[name])
        run = statistics.median(walls[False])
        traced_run = statistics.median(walls[True])
        metrics["run_s"] = (run, "s")
        metrics["pace.probe_s"] = (statistics.median(probes), "s")
        metrics["trace.run_s"] = (traced_run, "s")
        metrics["trace.overhead_s"] = (traced_run - run, "s")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "walls": {"untraced": walls[False], "paced": paced,
                  "traced": walls[True]},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--model", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    result = run(WORKLOADS[args.workload], args.model, args.work,
                 args.seconds, bool(args.trace))
    result["machine"] = machine(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
