"""Model files, displacement traces, and VTK surface export.

A model file is a JSON document validated against the schema shipped with
the package (``model.schema.json``).  Parsing produces a fully validated
:class:`~gibem.model.BoundaryModel`; writing one back out and re-parsing it
reproduces every numeric field to full precision, because floats travel
through ``repr`` round-trip formatting on both legs.

Traces sample the solved displacement along a patch edge (or a trimming
curve, which is the same thing in the rebuilt parameter square) and land in
a small CSV, as do the nodal coefficients.  Surface export writes a legacy
ASCII VTK unstructured grid of quad cells, optionally warped by a multiple
of the displacement field; all values are evaluated first, then written
patch by patch.
"""

import importlib.resources
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .errors import ModelError, ModelFormatError, GibemError
from .geometry import NurbsPatch, TrimmedPatch, TrimmingCurve
from .kernels import Material
from .model import BoundaryModel, FieldSpacePair, LoadState, SolverConfig
from .solve import evaluate_displacement_many
from .splines import BasisSpace

log = logging.getLogger("gibem.modelio")

_DEFAULT_FIELD_ORDERS = (2, 2)

_VTK_QUAD = 9


def load_schema():
    """The model file schema as a dict."""
    text = (
        importlib.resources.files("gibem")
        .joinpath("model.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _pointer(error) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


def _validate_document(raw):
    validator = jsonschema.Draft7Validator(load_schema())
    errors = list(validator.iter_errors(raw))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise ModelFormatError(best.message, location=_pointer(best))


def _build_curve(data) -> TrimmingCurve:
    space = BasisSpace(data["knots"], int(data["degree"]))
    return TrimmingCurve(space, np.asarray(data["control_points"], dtype=float))


def _build_patch(data):
    degrees = data["degrees"]
    space_u = BasisSpace(data["knots_u"], int(degrees[0]))
    space_v = BasisSpace(data["knots_v"], int(degrees[1]))
    patch = NurbsPatch(
        space_u,
        space_v,
        np.asarray(data["control_points"], dtype=float),
        np.asarray(data["weights"], dtype=float),
        flip_normal=bool(data.get("flip_normal", False)),
    )
    trim = data.get("trim")
    if trim is not None:
        patch = TrimmedPatch(
            patch, _build_curve(trim["curve_a"]), _build_curve(trim["curve_b"])
        )
    return patch


def _field_pair(data, default_orders) -> FieldSpacePair:
    orders = data.get("field_orders", default_orders)
    return FieldSpacePair.from_orders(
        int(orders[0]),
        int(orders[1]),
        interior_u=tuple(data.get("field_interior_u", ())),
        interior_v=tuple(data.get("field_interior_v", ())),
    )


def model_from_dict(raw) -> BoundaryModel:
    """Build a validated model from an already-decoded JSON document."""
    _validate_document(raw)

    try:
        material = Material(**raw["material"])
    except GibemError as exc:
        raise ModelFormatError(str(exc), location="/material") from exc

    load = None
    if "virgin_stress" in raw:
        try:
            load = LoadState(np.asarray(raw["virgin_stress"], dtype=float))
        except GibemError as exc:
            raise ModelFormatError(str(exc), location="/virgin_stress") from exc

    default_orders = tuple(raw.get("field_orders", _DEFAULT_FIELD_ORDERS))
    patches = []
    pairs = []
    for index, entry in enumerate(raw["patches"]):
        try:
            patches.append(_build_patch(entry))
            pairs.append(_field_pair(entry, default_orders))
        except GibemError as exc:
            raise ModelFormatError(
                f"patch {index}: {exc}", location=f"/patches/{index}"
            ) from exc

    config_data = dict(raw.get("config", {}))
    # the schema takes 8.0 for an integer, which SolverConfig refuses
    for key, cast in (("excavation_sign", float), ("gauss_order", int),
                      ("singular_gauss_order", int),
                      ("quadtree_max_depth", int), ("viz_samples", int)):
        if key in config_data:
            config_data[key] = cast(config_data[key])
    try:
        config = SolverConfig(**config_data)
    except GibemError as exc:
        raise ModelFormatError(str(exc), location="/config") from exc

    try:
        return BoundaryModel(
            patches=patches,
            field_pairs=pairs,
            material=material,
            load=load,
            symmetry_planes=tuple(raw.get("symmetry_planes", ())),
            exterior=bool(raw.get("exterior", False)),
            closed=bool(raw.get("closed", True)),
            config=config,
        )
    except GibemError as exc:
        raise ModelFormatError(str(exc)) from exc


def _reject_constant(name):
    raise ModelFormatError(f"non-finite number {name} is not allowed")


def parse_model(path) -> BoundaryModel:
    """Read and validate a model file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    model = model_from_dict(raw)
    log.info("parsed %s: %d patches", path, model.n_patches)
    return model


def _curve_to_dict(curve: TrimmingCurve):
    return {
        "degree": curve.space.degree,
        "knots": curve.space.knots.tolist(),
        "control_points": curve.control_points.tolist(),
    }


def _space_interior(space: BasisSpace):
    p = space.degree
    return space.knots[p + 1:-(p + 1)].tolist()


def _patch_to_dict(patch, pair: FieldSpacePair):
    base = patch.base if isinstance(patch, TrimmedPatch) else patch
    entry = {
        "degrees": [base.space_u.degree, base.space_v.degree],
        "knots_u": base.space_u.knots.tolist(),
        "knots_v": base.space_v.knots.tolist(),
        "control_points": base.control_points.tolist(),
        "weights": base.weights.tolist(),
        "flip_normal": base.flip_normal,
        "field_orders": list(pair.orders),
    }
    interior_u = _space_interior(pair.space_u)
    interior_v = _space_interior(pair.space_v)
    if interior_u:
        entry["field_interior_u"] = interior_u
    if interior_v:
        entry["field_interior_v"] = interior_v
    if isinstance(patch, TrimmedPatch):
        entry["trim"] = {
            "curve_a": _curve_to_dict(patch.curve_a),
            "curve_b": _curve_to_dict(patch.curve_b),
        }
    return entry


def model_to_dict(model: BoundaryModel):
    """JSON-ready dict for a model; the inverse of :func:`model_from_dict`."""
    cfg = model.config
    config = {
        "gauss_order": cfg.gauss_order,
        "singular_gauss_order": cfg.singular_gauss_order,
        "quadtree_threshold": cfg.quadtree_threshold,
        "quadtree_max_depth": cfg.quadtree_max_depth,
        "excavation_sign": cfg.excavation_sign,
        "viz_samples": cfg.viz_samples,
    }
    if cfg.merge_tol is not None:
        config["merge_tol"] = cfg.merge_tol
    raw = {
        "material": {
            "youngs_modulus": model.material.youngs_modulus,
            "poisson_ratio": model.material.poisson_ratio,
        },
        "symmetry_planes": list(model.symmetry_planes),
        "exterior": model.exterior,
        "closed": model.closed,
        "config": config,
        "patches": [
            _patch_to_dict(patch, pair)
            for patch, pair in zip(model.patches, model.field_pairs)
        ],
    }
    if model.load is not None:
        raw["virgin_stress"] = model.load.virgin_stress.tolist()
    return raw


def write_model(model: BoundaryModel, path):
    """Serialize a model to a JSON file that parses back identically."""
    raw = model_to_dict(model)
    _validate_document(raw)
    path = Path(path)
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    log.info("wrote model %s", path)


_EDGE_SELECTORS = {
    "u0": lambda ts: np.column_stack([np.zeros_like(ts), ts]),
    "u1": lambda ts: np.column_stack([np.ones_like(ts), ts]),
    "v0": lambda ts: np.column_stack([ts, np.zeros_like(ts)]),
    "v1": lambda ts: np.column_stack([ts, np.ones_like(ts)]),
}

# On a trimmed patch the rebuilt parameter square puts the first trimming
# curve at u=0 and the second at u=1, so the trim selectors are aliases
# that additionally insist the patch actually is trimmed.
_TRIM_SELECTORS = {"trim_a": "u0", "trim_b": "u1"}

_COMPONENTS = {"ux": 0, "uy": 1, "uz": 2, "mag": None}


@dataclass(frozen=True)
class TraceRequest:
    """One displacement trace along a patch edge or trimming curve."""

    patch_index: int
    selector: str
    component: str = "uz"
    samples: int = 65

    def __post_init__(self):
        if self.patch_index < 0:
            raise ModelError("trace patch index must be non-negative")
        if self.selector not in _EDGE_SELECTORS and \
                self.selector not in _TRIM_SELECTORS:
            known = sorted(_EDGE_SELECTORS) + sorted(_TRIM_SELECTORS)
            raise ModelError(
                f"unknown trace selector {self.selector!r}; "
                f"expected one of {', '.join(known)}"
            )
        if self.component not in _COMPONENTS:
            raise ModelError(
                f"unknown trace component {self.component!r}; "
                f"expected one of {', '.join(sorted(_COMPONENTS))}"
            )
        if not isinstance(self.samples, int) or self.samples < 2:
            raise ModelError("trace needs at least two samples")


def parse_trace_selector(text: str) -> TraceRequest:
    """Parse ``PATCH:EDGE[:COMPONENT[:SAMPLES]]`` into a request."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise ModelError(
            f"trace selector {text!r} must look like "
            "PATCH:EDGE[:COMPONENT[:SAMPLES]]"
        )
    try:
        patch_index = int(parts[0])
    except ValueError:
        raise ModelError(
            f"trace selector {text!r}: patch index must be an integer"
        ) from None
    kwargs = {}
    if len(parts) >= 3:
        kwargs["component"] = parts[2]
    if len(parts) == 4:
        try:
            kwargs["samples"] = int(parts[3])
        except ValueError:
            raise ModelError(
                f"trace selector {text!r}: sample count must be an integer"
            ) from None
    return TraceRequest(patch_index, parts[1], **kwargs)


def check_trace_request(model, request: TraceRequest):
    """Raise ModelError unless the request's patch exists in ``model`` and,
    for the trim selectors, is trimmed."""
    if not 0 <= request.patch_index < model.n_patches:
        raise ModelError(
            f"trace patch index {request.patch_index} out of range "
            f"0..{model.n_patches - 1}"
        )
    if request.selector in _TRIM_SELECTORS and \
            not isinstance(model.patches[request.patch_index], TrimmedPatch):
        raise ModelError(
            f"selector {request.selector!r} needs a trimmed patch, and patch "
            f"{request.patch_index} is not trimmed"
        )


def trace_table(model, solution, request: TraceRequest):
    """Sampled positions and component values for one trace.

    Returns (arc_length, positions, values) with samples uniform in the
    curve parameter and arc length accumulated along the sampled polyline.
    """
    check_trace_request(model, request)
    patch = model.patches[request.patch_index]
    selector = _TRIM_SELECTORS.get(request.selector, request.selector)
    ts = np.linspace(0.0, 1.0, request.samples)
    params = _EDGE_SELECTORS[selector](ts)
    positions = patch.points_at(params)
    disp = evaluate_displacement_many(
        model, solution, request.patch_index, params
    )
    axis = _COMPONENTS[request.component]
    if axis is None:
        values = np.linalg.norm(disp, axis=1)
    else:
        values = disp[:, axis]
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    return arc, positions, values


def _float_rows(table, sep):
    """A 2-D float table as text: each value's ``repr``, joined by ``sep``
    within a row and by newlines between rows (none after the last)."""
    tokens = map(repr, table.ravel().tolist())
    return "\n".join(map(sep.join, zip(*[tokens] * table.shape[1])))


def write_coefficients(solution, path):
    """Write the nodal coefficients as CSV: node, x, y, z, ux, uy, uz."""
    table = np.column_stack([solution.colloc.positions,
                             solution.coefficients.reshape(-1, 3)])
    rows = _float_rows(table, ",").split("\n")
    text = "".join(map("{},{}\n".format, range(len(rows)), rows))
    Path(path).write_text("node,x,y,z,ux,uy,uz\n" + text, encoding="utf-8")


def write_trace(model, solution, request: TraceRequest, path):
    """Write one trace as CSV: arc_length, x, y, z, component."""
    arc, positions, values = trace_table(model, solution, request)
    rows = _float_rows(np.column_stack([arc, positions, values]), ",")
    Path(path).write_text(f"arc_length,x,y,z,{request.component}\n{rows}\n",
                          encoding="utf-8")
    log.info("wrote trace %s (%d samples)", path, request.samples)


def write_vtk(model, solution, path, scale: float = 0.0):
    """Write the solved surface as a legacy ASCII VTK unstructured grid.

    Each patch contributes a k-by-k point grid, k = ``viz_samples`` of the
    model's config, and (k-1)^2 quad cells; the displacement field rides
    along as point data.  ``scale`` warps the geometry by that multiple of
    the displacement (0 leaves it undeformed).  Every patch's values are
    evaluated before the file is opened, so a failed evaluation leaves no
    file; the rows are then formatted and written patch by patch.
    """
    k = model.config.viz_samples
    ts = np.linspace(0.0, 1.0, k)
    uu, vv = np.meshgrid(ts, ts, indexing="ij")
    params = np.column_stack([uu.ravel(), vv.ravel()])
    vectors = [evaluate_displacement_many(model, solution, index, params)
               for index in range(model.n_patches)]
    points = [patch.points_at(params) + scale * disp
              for patch, disp in zip(model.patches, vectors)]
    n_points, n_cells = k * k * model.n_patches, (k - 1) ** 2 * model.n_patches
    # quad (a, a + k, a + k + 1, a + 1) at every grid point a = i * k + j
    # with i, j < k - 1; each patch adds k * k to every id
    quads = np.arange(k * k).reshape(k, k)[:-1, :-1].reshape(-1, 1) + \
        [0, k, k + 1, 1]

    with open(path, "w", encoding="utf-8") as out:
        out.write("# vtk DataFile Version 3.0\ngibem boundary surface\nASCII\n"
                  f"DATASET UNSTRUCTURED_GRID\nPOINTS {n_points} double\n")
        out.writelines(_float_rows(block, " ") + "\n" for block in points)
        out.write(f"CELLS {n_cells} {5 * n_cells}\n")
        out.writelines(
            "".join(map("4 {} {} {} {}\n".format, *(quads + first).T.tolist()))
            for first in range(0, n_points, k * k)
        )
        out.write(f"CELL_TYPES {n_cells}\n" + f"{_VTK_QUAD}\n" * n_cells +
                  f"POINT_DATA {n_points}\nVECTORS displacement double\n")
        out.writelines(_float_rows(block, " ") + "\n" for block in vectors)
    log.info("wrote VTK surface %s (%d points)", path, n_points)
