"""Seeded workload generator for the gibem benchmark.

Each workload is a model file plus the ``gibem solve`` flags it runs with.
The seed draws the Poisson ratio and the uniform virgin stress; everything
that sets the amount of work (field order, patch layout, trim split,
output sizes) is fixed per workload, so the DOF count and the work
counters do not depend on the seed.

The trim split is fixed because the solution's accuracy depends on it
sharply: as the split nears a side-face Greville abscissa, trimmed-patch
nodes sit close to, but apart from, side-face nodes, and the error against
the exact field grows (order-2 trimmed cube, two seeds: 8.4-9.2 digits
at split 0.36, 7.2-7.6 at 0.40, 3.5-4.0 at 0.49, 9.0-9.5 at exactly 0.5
where the nodes merge).
A seeded split would make ``error_digits`` swing by two digits between
seeds. At 0.4 the trimmed interface is non-conforming at orders 2 and 4,
with trimmed and side-face nodes at least 0.05 apart.

The solver only ever sees the JSON file written here through
``gibem.modelio.write_model`` and the command line flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gibem import (
    BoundaryModel,
    LoadState,
    Material,
    SolverConfig,
    TrimmedPatch,
    build_cube_model,
    build_trimmed_cube_model,
    parse_model,
    write_model,
)
from gibem.modelio import model_to_dict

YOUNGS_MODULUS = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    order: int
    split: float | None
    octant: bool
    viz_samples: int
    trace_samples: int
    edge_traces: bool

    def trace_selectors(self, model):
        """``--trace`` selectors: one small trace, or every edge and trim."""
        if not self.edge_traces:
            return [f"1:v1:uz:{self.trace_samples}"]
        selectors = []
        for index, patch in enumerate(model.patches):
            edges = ["u0", "u1", "v0", "v1"]
            if isinstance(patch, TrimmedPatch):
                edges += ["trim_a", "trim_b"]
            selectors += [f"{index}:{e}:mag:{self.trace_samples}" for e in edges]
        return selectors

    def cli_args(self, model, model_path, out_dir):
        args = ["solve", str(model_path), "--out", str(out_dir), "--vtk"]
        for selector in self.trace_selectors(model):
            args += ["--trace", selector]
        return args


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cube-far",
            order=5, split=None, octant=False,
            viz_samples=17, trace_samples=65, edge_traces=False,
        ),
        Workload(
            "octant-trim",
            order=4, split=0.4, octant=True,
            viz_samples=17, trace_samples=65, edge_traces=False,
        ),
        Workload(
            "trimmed-post",
            order=2, split=0.4, octant=False,
            viz_samples=161, trace_samples=3001, edge_traces=True,
        ),
    )
}


def draw_stress(rng, diagonal):
    """Voigt virgin stress; shear terms only when no mirror plane forbids them."""
    signs = rng.choice([-1.0, 1.0], size=3)
    normal = signs * rng.uniform(0.5, 1.5, size=3)
    shear = np.zeros(3) if diagonal else rng.uniform(-0.5, 0.5, size=3)
    return np.concatenate([normal, shear])


def build_model(workload: Workload, seed: int) -> BoundaryModel:
    rng = np.random.default_rng(seed)
    material = Material(YOUNGS_MODULUS, float(rng.uniform(0.0, 0.4)))
    load = LoadState(draw_stress(rng, diagonal=workload.octant))
    config = SolverConfig(viz_samples=workload.viz_samples)
    if workload.split is None:
        return build_cube_model(workload.order, material, load, config)
    cube = build_trimmed_cube_model(workload.order, workload.split, material,
                                    load, config)
    if not workload.octant:
        return cube
    # patches of the trimmed cube: 1, 2 are the two halves of the z=1
    # face, 3 is x=1 and 5 is y=1; mirrors complete the [-1, 1]^3 cube
    keep = (1, 2, 3, 5)
    return BoundaryModel(
        tuple(cube.patches[k] for k in keep),
        tuple(cube.field_pairs[k] for k in keep),
        material,
        load=load,
        symmetry_planes=("xy", "xz", "yz"),
        config=config,
    )


def write_workload(workload: Workload, seed: int, directory) -> tuple:
    """Write the seeded model file; returns (path, model).

    Raises ValueError when the file does not parse back to the same model.
    """
    model = build_model(workload, seed)
    path = Path(directory) / f"{workload.name}-{seed}.json"
    write_model(model, path)
    if model_to_dict(parse_model(path)) != model_to_dict(model):
        raise ValueError(f"{path} does not parse back to the model written")
    return path, model


def exact_strain(model) -> np.ndarray:
    """Uniform strain eps(sigma) of the model's virgin stress; u = eps x."""
    nu = model.material.poisson_ratio
    sigma = model.load.stress_matrix()
    return ((1.0 + nu) * sigma - nu * np.trace(sigma) * np.eye(3)) / \
        model.material.youngs_modulus
