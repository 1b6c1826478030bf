"""Compare the assembled arrays of two gibem source trees.

    python scripts/compare_assembly.py BASE_SRC NEW_SRC [--seed N]

For each source directory, one subprocess with that directory on
PYTHONPATH runs ``gibem.assembly.collocation_points(model)`` and
``gibem.assembly.assemble(model, colloc)`` on eighteen models: the three
benchmark workloads (built by ``perfbench/workloads.py``, imported
read-only), the order-2 cube, the order-2 trimmed cube split at 0.4, the
order-3 trimmed cube split at 0.49, an order-3 cube and an order-2
trimmed cube split at 0.4, both rotated by Rz(0.3) Ry(0.7) Rx(1.1), and
an order-3 cube whose top face bulges out. The cubes carry a full-shear
stress and no mirror planes. The rotated cubes have no axis-aligned
normals or offsets, so every term of every kernel dot product is nonzero
and a change in summation order shows. The bulged top face is a rational
biquadratic 3x3 net whose boundary rows lie on the straight cube edges and
whose centre point sits at z = 1.3 with weight 0.8, so degree-2 basis
derivatives reach the compared matrix; every other face is bilinear. A
tenth model, an order-3 cube, writes each flat face as a biquadratic patch
with two knot spans per direction (knots 0, 0, 0, 0.5, 1, 1, 1, control
points at the Greville abscissae 0, 0.25, 0.75, 1). The faces are the same
flat squares, but surface evaluation reads the control net at span offsets
other than 0, which no other model does. The eleventh is the
``octant-trim`` workload with ``quadtree_max_depth=1``: its quad-trees hit
the depth cap (the cap warning fires on it), so regions kept at the cap,
around nodes and their eight mirror images, reach the compared matrix.
The twelfth, ``trimmed-bulged-order3``, is the order-3 trimmed cube split
at 0.4 with the rational bulged top face as the base of both trimmed
patches. It is the only model where node images are found on a curved
patch by projection: 14 of the 24 images projected onto its trimmed
patches lie on them, and the projections stop after one, two or seven
Gauss-Newton steps. The thirteenth, ``seam-cube-order2``, is the cube's
bottom and top faces plus one bilinear wall wrapped around the four
sides, whose first and last control columns coincide; its order-2 field
has a double knot at each vertical edge. The wall's first and last
Greville columns merge into the same nodes, so its grid holds each of
them twice and both copies' kernel contributions reach the matrix. The
fourteenth, ``octant-trim-depth0``, is the ``octant-trim`` workload with
``quadtree_max_depth=0``: the quad-tree keeps every near base region
whole, so it is the only model where a near row integrates every base
region unrefined, its near ones as well as its far ones. The fifteenth,
``half-cube-xy-order3``, is the order-3 unit cube without its z = 0
face, closed by the ``xy`` plane into [0, 1]^2 x [-1, 1]: the only model
with one mirror plane, so a group of two images, and the only mirror
model whose load has a shear, sigma_xy (the drawn stress less the two
shears the plane forbids). The sixteenth, ``quarter-cube-yz-xz-order3``,
is the order-3 unit cube without its x = 0 and y = 0 faces, closed by the
``yz`` and ``xz`` planes into [-1, 1]^2 x [0, 1], under the drawn stress
without its shears: the only model with two planes, a group of four
images, whose nodes on the z axis have one target for all four. So the
models cover groups of 1, 2, 4 and 8 images. The seventeenth,
``seam-wall-order1``, is ``seam-cube-order2`` with the wall's field
linear in u and quadratic in v, without interior knots: each seam node's
two Greville parameters on the wall, u = 0 and u = 1, lie in the same
base region, so it is the only model whose rows hold two singular
parameters in one base region, which the quad-tree splits until each
holds one. The eighteenth, ``half-cube-xy-lifted``, is
``half-cube-xy-order3`` with every control point raised by 1e-10 in z:
its nodes on the plane no longer map onto themselves exactly, so their xy
images are targets of their own that lie within the merge tolerance of
their node and take its Greville parameters as singular parameters, which
no other model does. Only the two public calls
are used, so trees whose internals differ can be compared. For every model the
script prints, per array (node positions, each patch's grid of node
ids, the (n, n) nodal basis values ``colloc.node_values``, the closed
matrix and the rhs), whether the two trees agree bit for
bit and the largest difference relative to the largest BASE entry, and
a closing line gives the largest of those over all models for the matrix
and for the rhs. The
grids and the model's Greville parameters determine every node's
aliases, so equal grids mean equal aliases. A second table gives, per
model and tree, the traction-kernel (point, node) pairs that ``assemble``
evaluates, counted by wrapping ``gibem.assembly.kelvin_T_many``, and the
singular fan points, counted from the weights that a wrapped
``gibem.assembly.singular_quadrature_points`` returns, so that a change of
work shows next to the drift. It exits with status 1 when any array
differs; the work counts do not count towards that.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs in the subprocess: argv is (output .npz, seed, perfbench directory).
CHILD = """
import dataclasses
import sys
import numpy as np
out, seed, perfbench = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path.insert(0, perfbench)
from workloads import WORKLOADS, build_model, draw_stress
from gibem import (BasisSpace, FieldSpacePair, LoadState, Material,
                   NurbsPatch, build_cube_model, build_trimmed_cube_model,
                   unit_interval_space)
import gibem.assembly
from gibem.assembly import assemble, collocation_points

pairs, fan_points = [0], [0]
kernel = gibem.assembly.kelvin_T_many
fans = gibem.assembly.singular_quadrature_points


def counting_kernel(diff, normals, material):
    pairs[0] += np.broadcast(*diff).size
    return kernel(diff, normals, material)


def counting_fans(*args):
    quad = fans(*args)
    fan_points[0] += len(quad[1])  # the weights, whatever else it returns
    return quad


gibem.assembly.kelvin_T_many = counting_kernel
gibem.assembly.singular_quadrature_points = counting_fans
models = {name: build_model(w, seed) for name, w in WORKLOADS.items()}
rng = np.random.default_rng(seed)
material = Material(1000.0, float(rng.uniform(0.0, 0.4)))
load = LoadState(draw_stress(rng, diagonal=False))
models["cube-order2"] = build_cube_model(2, material, load)
models["trimmed-cube-order2"] = build_trimmed_cube_model(2, 0.4, material, load)
models["trimmed-cube-order3"] = build_trimmed_cube_model(3, 0.49, material, load)


def axis_rotation(axis, angle):
    i, j = (axis + 1) % 3, (axis + 2) % 3
    mat = np.eye(3)
    mat[i, i] = mat[j, j] = np.cos(angle)
    mat[i, j], mat[j, i] = -np.sin(angle), np.sin(angle)
    return mat


def rotated(patch, rot):
    if hasattr(patch, "base"):  # a TrimmedPatch keeps its trimming curves
        return dataclasses.replace(patch, base=rotated(patch.base, rot))
    return dataclasses.replace(patch, control_points=patch.control_points @ rot.T)


rot = axis_rotation(2, 0.3) @ axis_rotation(1, 0.7) @ axis_rotation(0, 1.1)
for name, model in [("rotated-cube-order3", build_cube_model(3, material, load)),
                    ("rotated-trimmed-order2",
                     build_trimmed_cube_model(2, 0.4, material, load))]:
    models[name] = dataclasses.replace(
        model, patches=tuple(rotated(p, rot) for p in model.patches))

# the top face (patch 1, the map (u, v) -> (u, v, 1)) bulges out of the cube
net = np.array([[[i / 2, j / 2, 1.0] for j in range(3)] for i in range(3)])
net[1, 1, 2] = 1.3
weights = np.ones((3, 3))
weights[1, 1] = 0.8
cube = build_cube_model(3, material, load)
bulged = NurbsPatch(unit_interval_space(2), unit_interval_space(2), net, weights)
models["bulged-cube-order3"] = dataclasses.replace(
    cube, patches=(cube.patches[0], bulged) + cube.patches[2:])
trimmed = build_trimmed_cube_model(3, 0.4, material, load)
models["trimmed-bulged-order3"] = dataclasses.replace(trimmed, patches=(
    trimmed.patches[0],
    *(dataclasses.replace(p, base=bulged) for p in trimmed.patches[1:3]),
    *trimmed.patches[3:]))

# each flat face again, as a two-span biquadratic net on the Greville grid
two_span = BasisSpace([0.0, 0, 0, 0.5, 1, 1, 1], 2)
grev = np.array([0.0, 0.25, 0.75, 1.0])
grid = np.stack(np.meshgrid(grev, grev, indexing="ij"), -1).reshape(-1, 2)
models["two-span-cube-order3"] = dataclasses.replace(cube, patches=tuple(
    NurbsPatch(two_span, two_span, p.points_at(grid).reshape(4, 4, 3),
               np.ones((4, 4)), flip_normal=p.flip_normal)
    for p in cube.patches))

octant = models["octant-trim"]
for depth in (1, 0):
    config = dataclasses.replace(octant.config, quadtree_max_depth=depth)
    models[f"octant-trim-depth{depth}"] = dataclasses.replace(
        octant, config=config)

# the four side faces as one wall closing on itself at u = 0 and u = 1
ring = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1], [0, 0]])
wall = NurbsPatch(BasisSpace([0.0, 0, 0.25, 0.5, 0.75, 1, 1], 1),
                  unit_interval_space(1),
                  np.stack([np.column_stack([ring, np.full(5, z)])
                            for z in (0.0, 1.0)], axis=1), np.ones((5, 2)))
seam = build_cube_model(2, material, load)
field = FieldSpacePair.from_orders(2, interior_u=[0.25, 0.25, 0.5, 0.5,
                                                  0.75, 0.75])
models["seam-cube-order2"] = dataclasses.replace(
    seam, patches=seam.patches[:2] + (wall,),
    field_pairs=seam.field_pairs[:2] + (field,))
models["seam-wall-order1"] = dataclasses.replace(
    models["seam-cube-order2"],
    field_pairs=seam.field_pairs[:2] + (FieldSpacePair.from_orders(1, 2),))

# [0, 1]^2 x [-1, 1]: the unit cube less its z = 0 face, closed by the xy
# plane, under the drawn stress without the shears that plane forbids
half = build_cube_model(3, material, LoadState(
    load.virgin_stress * [1.0, 1, 1, 1, 0, 0]))
models["half-cube-xy-order3"] = dataclasses.replace(
    half, patches=half.patches[1:], field_pairs=half.field_pairs[1:],
    symmetry_planes=("xy",))
models["half-cube-xy-lifted"] = dataclasses.replace(
    models["half-cube-xy-order3"], patches=tuple(
        dataclasses.replace(p, control_points=p.control_points + [0, 0, 1e-10])
        for p in models["half-cube-xy-order3"].patches))

# [-1, 1]^2 x [0, 1]: the unit cube less its x = 0 and y = 0 faces, closed
# by the yz and xz planes, under the drawn stress without the shears, all
# of which the two planes forbid
quarter = build_cube_model(3, material, LoadState(
    load.virgin_stress * [1.0, 1, 1, 0, 0, 0]))
keep = (0, 1, 2, 4)
models["quarter-cube-yz-xz-order3"] = dataclasses.replace(
    quarter, patches=tuple(quarter.patches[k] for k in keep),
    field_pairs=tuple(quarter.field_pairs[k] for k in keep),
    symmetry_planes=("yz", "xz"))
arrays = {}
for name, model in models.items():
    colloc = collocation_points(model)
    pairs[0] = fan_points[0] = 0
    matrix, rhs = assemble(model, colloc)
    arrays[name + "/kernel_pairs"] = pairs[0]
    arrays[name + "/fan_points"] = fan_points[0]
    arrays[name + "/positions"] = colloc.positions
    for k, grid in enumerate(colloc.grids):
        arrays[name + f"/grid{k}"] = grid
    arrays[name + "/node_values"] = colloc.node_values
    arrays[name + "/matrix"] = matrix
    arrays[name + "/rhs"] = rhs
np.savez(out, **arrays)
"""


def run_assembly(src, seed, out):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", CHILD, str(out), str(seed), str(PERFBENCH)],
        env=env, check=True,
    )
    with np.load(out) as data:
        return dict(data)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        base = run_assembly(args.base_src, args.seed, Path(tmp) / "base.npz")
        new = run_assembly(args.new_src, args.seed, Path(tmp) / "new.npz")

    all_equal = True
    worst = {"matrix": 0.0, "rhs": 0.0}
    print(f"{'model':<27}{'array':<15}{'array_equal':<13}max rel diff")
    work = {}
    for key in base:
        model, array = key.split("/")
        if array in ("kernel_pairs", "fan_points"):
            work.setdefault(model, []).append((int(base[key]), int(new[key])))
            continue
        a, b = base[key], new[key]
        equal = a.shape == b.shape and np.array_equal(a, b)
        all_equal &= equal
        if a.shape != b.shape:
            rel = f"shapes {a.shape} vs {b.shape}"
        else:
            scale = np.abs(a).max()
            diff = np.abs(a - b).max() / scale if scale else 0.0
            if array in worst:
                worst[array] = max(worst[array], diff)
            rel = f"{diff:.3e}"
        print(f"{model:<27}{array:<15}{str(equal):<13}{rel}")
    print(f"largest max rel diff over all models: matrix "
          f"{worst['matrix']:.3e}, rhs {worst['rhs']:.3e}")
    print(f"\n{'model':<27}{'kernel pairs, base':>20}{'new':>12}{'change':>9}"
          f"{'fan points, base':>18}{'new':>10}{'change':>9}")
    for model, counts in work.items():
        print(f"{model:<27}" + "".join(
            f"{a:>{width},}{b:>{width - 8},}{(b - a) / a if a else 0.0:>+9.1%}"
            for (a, b), width in zip(counts, (20, 18))))
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
