"""Dense solve, rigid-mode handling, field evaluation, order elevation.

The LU is written in numpy. Pure Neumann interior problems carry a
rigid-motion nullspace. The field-space modes that survive the declared
mirror symmetries border the system as constraints, so the solution is
the one orthogonal to every rigid field (Blazquez, Mantic, Paris & Canas,
IJNME 1996). Exterior problems need no constraint, the decay condition
already removes the nullspace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SingularMatrixError
from .assembly import assemble, collocation_points
from .model import reflection_matrix

__all__ = [
    "Solution",
    "solve",
    "solve_model",
    "rigid_modes",
    "pin_rigid_motion",
    "remove_rigid_motion",
    "evaluate_displacement_many",
    "elevate_model_order",
]


@dataclass(frozen=True, eq=False)
class Solution:
    """Displacement coefficients plus solve metadata. ``residual`` is the
    relative residual of the system solved, bordered for interior models."""

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


def pin_rigid_motion(matrix, rhs, modes):
    """Border the system with the rigid modes given as field coefficients.

    ``modes`` (n, k) is orthonormalised to Z, so the border's scale does
    not depend on model units, and the returned system
    [[A, Z], [Z^T, 0]] [x; lambda] = [b; 0] has one solution whose first n
    entries are orthogonal to every mode. Without modes the system comes
    back unchanged.
    """
    k = modes.shape[1]
    if not k:
        return matrix, rhs
    z = np.linalg.qr(modes)[0]
    return (np.block([[matrix, z], [z.T, np.zeros((k, k))]]),
            np.concatenate([rhs, np.zeros(k)]))


def remove_rigid_motion(colloc, displacements, symmetry_planes=()):
    """Subtract the best-fit surviving rigid motion from displacements.

    ``colloc`` is anything with ``positions`` (m, 3), and ``displacements``
    the flattened (3m,) values there. This compares a field with an exact
    one up to a rigid motion; node samples stand in for field coefficients
    only where the patch maps are affine.
    """
    z = rigid_modes(colloc.positions, symmetry_planes)
    if not z.shape[1]:
        return displacements
    fit, *_ = np.linalg.lstsq(z, displacements, rcond=None)
    return displacements - z @ fit


def solve_model(model):
    """Collocate, assemble and solve one model. An interior model's system
    is bordered with the field coefficients of its surviving rigid modes,
    mapped from their node samples by the collocation set's
    ``node_values``."""
    colloc = collocation_points(model)
    matrix, rhs = assemble(model, colloc)
    n = len(rhs)
    if not model.exterior:
        modes = rigid_modes(colloc.positions, model.symmetry_planes)
        if modes.shape[1]:  # three mirror planes leave none to map
            modes = np.linalg.solve(colloc.node_values,
                                    modes.reshape(len(colloc), -1))
        matrix, rhs = pin_rigid_motion(matrix, rhs, modes.reshape(n, -1))
    coeffs, residual = solve(matrix, rhs)
    orders = tuple(pair.orders for pair in model.field_pairs)
    return Solution(coeffs[:n], colloc, orders, residual)


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
