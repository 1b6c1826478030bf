"""Command line driver.

One subcommand for now: ``gibem solve`` reads a model file, runs the
solver, and drops artifacts into an output directory.  Every failure path
prints a single line with a greppable code (``MODEL_FORMAT``, ``MODEL``,
``UNSUPPORTED_MODEL``, ``SINGULAR_MATRIX``, ``IO``, ``INTERNAL``) and
exits with status 1; bad command line syntax exits with status 2 the way
argparse always does.  Set ``GIBEM_LOG_LEVEL=INFO`` (or ``DEBUG``) to see
progress on stderr.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

from numpy.linalg import LinAlgError

from .errors import (
    GibemError,
    ModelError,
    ModelFormatError,
    SingularMatrixError,
    UnsupportedModelError,
)
from .modelio import (
    check_trace_request,
    parse_model,
    parse_trace_selector,
    write_coefficients,
    write_trace,
    write_vtk,
)
from .solve import elevate_model_order, solve_model

log = logging.getLogger("gibem.cli")

LOG_LEVEL_ENV = "GIBEM_LOG_LEVEL"


def _error_code(exc) -> str:
    if isinstance(exc, ModelFormatError):
        return "MODEL_FORMAT"
    if isinstance(exc, UnsupportedModelError):
        return "UNSUPPORTED_MODEL"
    if isinstance(exc, (SingularMatrixError, LinAlgError)):
        return "SINGULAR_MATRIX"
    if isinstance(exc, ModelError):
        return "MODEL"
    if isinstance(exc, GibemError):
        return "INTERNAL"
    return "IO"


def _configure_logging():
    name = os.environ.get(LOG_LEVEL_ENV, "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibem",
        description="Boundary element solver for trimmed NURBS models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser(
        "solve", help="solve a model file and write result artifacts"
    )
    solve.add_argument("model", type=Path, help="model JSON file")
    solve.add_argument(
        "--order",
        type=int,
        default=None,
        metavar="N",
        help="raise every patch's displacement order to at least N",
    )
    solve.add_argument(
        "--gauss",
        type=int,
        default=None,
        metavar="N",
        help="override the regular-region Gauss order",
    )
    solve.add_argument(
        "--out",
        type=Path,
        default=Path("gibem-out"),
        metavar="DIR",
        help="output directory (default: gibem-out)",
    )
    solve.add_argument(
        "--trace",
        action="append",
        default=[],
        metavar="SELECTOR",
        help="displacement trace PATCH:EDGE[:COMPONENT[:SAMPLES]] with EDGE "
        "one of u0,u1,v0,v1,trim_a,trim_b; repeatable",
    )
    solve.add_argument(
        "--vtk", action="store_true", help="write the surface as surface.vtk"
    )
    solve.add_argument(
        "--scale",
        type=float,
        default=0.0,
        metavar="S",
        help="warp the VTK surface by S times the displacement (default 0)",
    )
    solve.set_defaults(handler=_cmd_solve)
    return parser


def _cmd_solve(args) -> int:
    if not float("-inf") < args.scale < float("inf"):
        raise ModelError(f"--scale must be finite, got {args.scale!r}")
    requests = [parse_trace_selector(text) for text in args.trace]
    model = parse_model(args.model)
    traces = {}
    for request in requests:
        check_trace_request(model, request)
        name = (f"trace_{request.patch_index}_{request.selector}"
                f"_{request.component}.csv")
        if name in traces:
            raise ModelError(f"two --trace requests would both write {name}")
        traces[name] = request
    if args.order is not None:
        if args.order < 1:
            raise ModelError("--order must be at least 1")
        model = elevate_model_order(model, args.order)
    if args.gauss is not None:
        model = model.with_config(
            dataclasses.replace(model.config, gauss_order=args.gauss)
        )

    started = time.perf_counter()
    solution = solve_model(model)
    runtime = time.perf_counter() - started
    log.info(
        "solved %d dof in %.2f s, residual %.3e",
        solution.dof_count,
        runtime,
        solution.residual,
    )

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_coefficients(solution, out / "coefficients.csv")
    report = {
        "model": str(args.model),
        "patches": model.n_patches,
        "nodes": len(solution.colloc),
        "dof_count": solution.dof_count,
        "field_orders": [list(orders) for orders in solution.field_orders],
        "symmetry_planes": list(model.symmetry_planes),
        "exterior": model.exterior,
        "residual": solution.residual,
        "runtime_seconds": runtime,
    }
    (out / "report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    for name, request in traces.items():
        write_trace(model, solution, request, out / name)
    if args.vtk:
        write_vtk(model, solution, out / "surface.vtk", scale=args.scale)

    print(
        f"solved {args.model}: {solution.dof_count} dof, "
        f"residual {solution.residual:.3e}, artifacts in {out}"
    )
    return 0


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GibemError, LinAlgError, OSError) as exc:
        print(f"gibem error {_error_code(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
