"""Point-force (Kelvin) fundamental solutions for 3D linear elastostatics.

``kelvin_U_many`` gives the displacement kernel applied to tractions, U t,
and ``kelvin_T_many`` the traction influence matrices, oriented so that the
boundary identity reads

    c(P) u(P) + int T(P, Q) u(Q) dS = int U(P, Q) t(Q) dS

with the normal pointing out of the domain.  Consequently the closed-surface
identity  int T dS = -I  holds for any surface enclosing the source point.

Inputs and outputs are component-major: ``diff`` (field point minus
source), normals and tractions come as x, y and z arrays that broadcast to
the pair shape, such as the transpose of (m, 3) rows, and the outputs put
the components first, one C-contiguous plane of the pair shape each, so
a (k, m) pair shape gives a (3, 3, k, m) or (3, k, m) block that reshapes
without a copy.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import KernelSingularityError, ModelError

__all__ = ["Material", "kelvin_U_many", "kelvin_T_many"]


@dataclass(frozen=True)
class Material:
    """Isotropic elastic material."""

    youngs_modulus: float
    poisson_ratio: float

    def __post_init__(self):
        for name, rule, valid in (
                ("youngs_modulus", "a positive number", lambda v: v > 0.0),
                ("poisson_ratio", "a number in (-1, 0.5)",
                 lambda v: -1.0 < v < 0.5)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Real) or not valid(value):
                raise ModelError(f"{name} must be {rule}, got {value!r}")

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


def _radii(diff):
    """Unit vector and length of ``diff``, summed as np.linalg.norm does."""
    dx, dy, dz = diff
    r = np.sqrt((dx * dx + dy * dy) + dz * dz)
    if np.any(r == 0.0):
        raise KernelSingularityError("field point coincides with the source point")
    return [d / r for d in diff], r


def _dot(a, b):
    """Dot product summed as ``np.einsum("...i,...i->...")`` does."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def kelvin_U_many(diff, material: Material, tractions) -> np.ndarray:
    """Displacement kernel times ``tractions``, U t; shape (3, ...).

    No 3x3 block is formed.
    """
    rdir, r = _radii(diff)
    nu = material.poisson_ratio
    g = material.shear_modulus
    c = 1.0 / (16.0 * np.pi * g * (1.0 - nu))
    rdt = _dot(rdir, tractions)
    out = np.empty((3,) + np.shape(rdt))
    for k in range(3):
        np.multiply(rdir[k], rdt, out=out[k])
        out[k] += (3.0 - 4.0 * nu) * tractions[k]
        out[k] *= c
        out[k] /= r
    return out


def kelvin_T_many(diff, normals, material: Material) -> np.ndarray:
    """Traction kernel at many field points; shape (3, 3, ...).

    ``normals`` are unit normals at the field points, pointing out of the
    domain the identity is written for.
    """
    rdir, r = _radii(diff)
    nu = material.poisson_ratio
    two_nu = 1.0 - 2.0 * nu
    scale = -1.0 / (8.0 * np.pi * (1.0 - nu)) / r**2
    drdn = _dot(rdir, normals)
    # scale * (drdn * (two_nu I + 3 r r^T) + two_nu * (n r^T - r n^T))
    radial = 3.0 * scale * drdn
    scale *= two_nu
    turn = [scale * n for n in normals]
    diagonal = scale * drdn
    out = np.empty((3, 3) + np.shape(drdn))
    # scratch rows for the two products that are not written to ``out``
    left, cross = np.empty_like(drdn), np.empty_like(drdn)
    for i in range(3):
        np.multiply(radial, rdir[i], out=left)
        left += turn[i]
        for j in range(3):
            np.multiply(left, rdir[j], out=out[i, j])
            np.multiply(rdir[i], turn[j], out=cross)
            out[i, j] -= cross
        out[i, i] += diagonal
    return out
