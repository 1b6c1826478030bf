"""Boundary element solver for 3D linear elastostatics on trimmed NURBS
patches, with collocation on Greville points and a displacement basis that
can be refined independently of the geometry."""

from .splines import (
    BasisSpace,
    greville_abscissae,
    unit_interval_space,
)
from .geometry import (
    NurbsPatch,
    TrimmedPatch,
    TrimmingCurve,
    build_quarter_cylinder,
    straight_trim_pair,
)
from .kernels import Material
from .model import (
    BoundaryModel,
    FieldSpacePair,
    LoadState,
    SolverConfig,
    build_cube_model,
    build_trimmed_cube_model,
)
from .assembly import assemble, collocation_points
from .solve import (
    Solution,
    elevate_model_order,
    evaluate_displacement_many,
    solve_model,
)
from .modelio import (
    TraceRequest,
    parse_model,
    write_model,
    write_trace,
    write_vtk,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpace",
    "BoundaryModel",
    "FieldSpacePair",
    "LoadState",
    "Material",
    "NurbsPatch",
    "Solution",
    "SolverConfig",
    "TraceRequest",
    "TrimmedPatch",
    "TrimmingCurve",
    "assemble",
    "build_cube_model",
    "build_quarter_cylinder",
    "build_trimmed_cube_model",
    "collocation_points",
    "elevate_model_order",
    "evaluate_displacement_many",
    "greville_abscissae",
    "parse_model",
    "solve_model",
    "straight_trim_pair",
    "unit_interval_space",
    "write_model",
    "write_trace",
    "write_vtk",
    "__version__",
]
