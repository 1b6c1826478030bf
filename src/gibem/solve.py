"""Dense solve, rigid-mode handling, field evaluation, refinement driver.

The LU is written in numpy. Pure Neumann interior problems carry a
rigid-motion nullspace. The modes that survive the declared mirror
symmetries are pinned at the well-conditioned displacement components
LAPACK's pivoted QR picks, and the reported coefficients are post-normalized
by subtracting the best-fit surviving rigid motion, fitted in the field
coefficient space. Exterior problems need neither step, the decay
condition already removes the nullspace.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SingularMatrixError
from .assembly import assemble, collocation_points, node_values
from .model import reflection_matrix

__all__ = [
    "Solution",
    "solve",
    "solve_model",
    "rigid_modes",
    "pin_rigid_motion",
    "remove_rigid_motion",
    "evaluate_displacement",
    "elevate_model_order",
    "refinement_study",
]


@dataclass(frozen=True, eq=False)
class Solution:
    """Displacement coefficients plus solve metadata."""

    coefficients: np.ndarray
    colloc: object
    field_orders: tuple
    residual: float

    @property
    def dof_count(self):
        return len(self.coefficients)


def solve(matrix, rhs):
    """LU solve with a residual check, for one assembled dense system."""
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ModelError(f"system matrix must be square, got {matrix.shape}")
    if rhs.shape != (matrix.shape[0],):
        raise ModelError(
            f"rhs length {rhs.shape} does not match matrix {matrix.shape}"
        )
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise ModelError("system contains non-finite entries")
    lu, perm = matrix.copy(), np.arange(len(matrix))
    _lu_factor(lu, perm, 0, len(lu))
    diag = np.abs(np.diag(lu))
    scale = diag.max() if diag.size else 0.0
    bad = np.nonzero(diag <= 1e-14 * max(scale, 1.0))[0]
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    coeffs = rhs[perm]
    _triangular_solve(lu, coeffs, lower=True)
    _triangular_solve(lu, coeffs, lower=False)
    denom = np.linalg.norm(rhs)
    residual = np.linalg.norm(matrix @ coeffs - rhs)
    residual = residual / denom if denom > 0 else residual
    return coeffs, float(residual)


def _lu_factor(lu, perm, lo, hi):
    """Partial-pivot LU of columns lo:hi of lu in place, swapping whole rows
    of lu and entries of perm: over all columns, L @ U = input[perm]. As in
    LAPACK getrf a pivot is the first entry of largest magnitude, and a zero
    pivot is left unscaled, so a singular matrix still factors.
    """
    if hi - lo > 8:  # narrower blocks cost more in calls than BLAS saves
        mid = (lo + hi) // 2
        _lu_factor(lu, perm, lo, mid)
        _triangular_solve(lu[lo:mid, lo:mid], lu[lo:mid, mid:hi], lower=True)
        lu[mid:, mid:hi] -= lu[mid:, lo:mid] @ lu[lo:mid, mid:hi]
        _lu_factor(lu, perm, mid, hi)
        return
    for j in range(lo, hi):
        p = j + int(np.abs(lu[j:, j]).argmax())
        if p != j:
            lu[[j, p]] = lu[[p, j]]
            perm[[j, p]] = perm[[p, j]]
        lu[j + 1:, j] /= lu[j, j] or 1.0  # a zero pivot has zeros below
        lu[j + 1:, j + 1:hi] -= lu[j + 1:, j, None] * lu[j, j + 1:hi]


def _triangular_solve(t, b, lower):
    """b = T^-1 b in place, T the unit lower or the upper triangle of t."""
    k = len(t)
    if k <= 16:
        tri = np.tril(t, -1) + np.eye(k) if lower else np.triu(t)
        b[...] = np.linalg.solve(tri, b)
        return
    first, second = (slice(k // 2), slice(k // 2, k))[::1 if lower else -1]
    _triangular_solve(t[first, first], b[first], lower)
    b[second] -= t[second, first] @ b[first]
    _triangular_solve(t[second, second], b[second], lower)


def rigid_modes(positions, symmetry_planes=()):
    """Rigid-motion fields compatible with the declared mirror symmetries.

    Returns the (3m, k) matrix whose columns are the surviving modes at
    ``positions`` (m, 3), flattened point by point: first the translations
    along the coordinate axes that every plane's reflection keeps, then the
    rotations about the axes that every reflection reverses. Without
    symmetry there are six.
    """
    signs = np.array([np.diag(reflection_matrix(p))
                      for p in symmetry_planes]).reshape(-1, 3)
    axes = np.eye(3)
    cols = [np.broadcast_to(axes[a], (len(positions), 3))
            for a in range(3) if np.all(signs[:, a] == 1.0)]
    # a rotation axis is a pseudovector, mapped to -M e by a reflection M
    cols += [np.cross(axes[a], positions)
             for a in range(3) if np.all(signs[:, a] == -1.0)]
    if not cols:
        return np.zeros((3 * len(positions), 0))
    return np.column_stack([col.ravel() for col in cols])


def pin_rigid_motion(matrix, rhs, colloc, symmetry_planes=()):
    """Replace a well-chosen set of rows by zero-displacement constraints.

    One row per surviving rigid mode is overwritten with an identity row.
    The rows are picked by column-pivoted QR on the mode value matrix so
    the constrained mode combinations stay well conditioned. The QR copies
    LAPACK dlaqp2, which geqp3 runs for these k <= 6 rows: symmetric models
    have exact ties, and the rows chosen move the answer at the level of
    the discretisation error, so ties must break as in geqp3.
    """
    a = rigid_modes(colloc.positions, symmetry_planes).T
    if not len(a):
        return matrix, rhs, ()
    cols = np.arange(a.shape[1])
    vn1 = np.linalg.norm(a, axis=0)
    vn2 = vn1.copy()
    for i in range(min(a.shape)):
        p = i + int(vn1[i:].argmax())
        a[:, [i, p]] = a[:, [p, i]]
        cols[[i, p]] = cols[[p, i]]
        vn1[p], vn2[p] = vn1[i], vn2[i]
        alpha, x = a[i, i], a[i + 1:, i]
        xnorm = np.linalg.norm(x)
        if xnorm != 0.0:  # one Householder step, dlarfg then dlarf
            beta = -np.copysign(np.hypot(alpha, xnorm), alpha)
            v = np.concatenate([[1.0], x / (alpha - beta)])
            rest = a[i:, i + 1:]
            rest -= np.outer((beta - alpha) / beta * v, v @ rest)
        # downdate the partial norms as in LAPACK Working Note 176
        j = np.flatnonzero(vn1[i + 1:]) + i + 1
        temp = np.maximum(1.0 - (np.abs(a[i, j]) / vn1[j]) ** 2, 0.0)
        stale = j[temp * (vn1[j] / vn2[j]) ** 2 <= np.finfo(float).eps ** 0.5]
        vn1[j] *= np.sqrt(temp)
        vn1[stale] = vn2[stale] = np.linalg.norm(a[i + 1:, stale], axis=0)
    rows = tuple(int(r) for r in cols[:len(a)])
    matrix = matrix.copy()
    rhs = rhs.copy()
    for r in rows:
        matrix[r, :] = 0.0
        matrix[r, r] = 1.0
        rhs[r] = 0.0
    return matrix, rhs, rows


def remove_rigid_motion(colloc, coefficients, symmetry_planes=(),
                        values=None):
    """Subtract the best-fit surviving rigid motion from the coefficients.

    ``colloc`` is anything with node ``positions``, where the rigid modes
    are sampled. ``values``, the matrix of ``assembly.node_values``, maps
    those samples to the field coefficients of the rigid fields, and
    the least-squares fit is removed in that space, which leaves the
    elastic part alone on any patch geometry. Without it the node samples
    stand in for the coefficients, which is exact only for affine patch
    maps, as on flat faces.
    """
    z = rigid_modes(colloc.positions, symmetry_planes)
    if not z.shape[1]:
        return coefficients
    if values is not None:
        z = np.linalg.solve(values,
                            z.reshape(len(values), -1)).reshape(z.shape)
    fit, *_ = np.linalg.lstsq(z, coefficients, rcond=None)
    return coefficients - z @ fit


def solve_model(model):
    """Collocate, assemble, solve, and normalize one model."""
    colloc = collocation_points(model)
    matrix, rhs = assemble(model, colloc)
    if not model.exterior:
        matrix, rhs, _ = pin_rigid_motion(
            matrix, rhs, colloc, model.symmetry_planes
        )
    coeffs, residual = solve(matrix, rhs)
    if not model.exterior:
        coeffs = remove_rigid_motion(colloc, coeffs, model.symmetry_planes,
                                     node_values(model, colloc))
    orders = tuple(pair.orders for pair in model.field_pairs)
    return Solution(coeffs, colloc, orders, residual)


def evaluate_displacement(model, solution, patch_index, u, v):
    """Displacement vector at field parameters (u, v) of one patch."""
    return evaluate_displacement_many(model, solution, patch_index, [[u, v]])[0]


def evaluate_displacement_many(model, solution, patch_index, params):
    """Displacement vectors at an (m, 2) array of field parameters.

    Each returned row is bit-identical to evaluating its point alone,
    however many rows are evaluated together.
    """
    if not (isinstance(patch_index, (int, np.integer))
            and 0 <= patch_index < model.n_patches):
        raise ModelError(f"patch index {patch_index!r} is not an integer in "
                         f"0..{model.n_patches - 1}")
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 2:
        raise ModelError(f"parameters must be (m, 2), got {params.shape}")
    pair = model.field_pairs[patch_index]
    values = pair.values(params)
    ids = solution.colloc.grids[patch_index].ravel()
    coeffs = solution.coefficients.reshape(-1, 3)
    # not `@`: BLAS sums a row in an order that depends on the row count,
    # while unoptimized einsum sums every row the same way
    return np.einsum("mf,fk->mk", values, coeffs[ids])


def elevate_model_order(model, new_order):
    """Raise every patch's field order to ``new_order``; geometry stays
    untouched, and pairs already at that order or above are kept."""
    pairs = [
        pair if max(pair.orders) >= new_order else pair.elevated(new_order)
        for pair in model.field_pairs
    ]
    return model.with_field_pairs(pairs)


def refinement_study(model, orders, probe=None, csv_path=None):
    """Solve at several field orders and report a probe functional.

    probe is (patch_index, u, v); the functional is the displacement
    magnitude there. Returns rows (order, dof_count, functional, residual)
    and optionally writes them as CSV.
    """
    orders = list(orders)
    if orders != sorted(orders) or len(set(orders)) != len(orders):
        raise ModelError(f"orders must be strictly increasing, got {orders}")
    if probe is None:
        probe = (0, 0.5, 0.5)
    patch_index, u, v = probe

    current = max(max(pair.orders) for pair in model.field_pairs)
    rows = []
    for order in orders:
        if order < current:
            raise ModelError(
                f"cannot lower field order from {current} to {order}"
            )
        stage = model if order == current else elevate_model_order(model, order)
        sol = solve_model(stage)
        disp = evaluate_displacement(stage, sol, patch_index, u, v)
        rows.append((order, sol.dof_count, float(np.linalg.norm(disp)),
                     sol.residual))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["order", "dof_count", "functional", "residual"])
            for row in rows:
                writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])
    return rows
