"""Point-force (Kelvin) fundamental solutions for 3D linear elastostatics.

``kelvin_U_many`` gives the displacement kernel applied to tractions, U t,
and ``kelvin_T_many`` the traction influence matrices, oriented so that the
boundary identity reads

    c(P) u(P) + int T(P, Q) u(Q) dS = int U(P, Q) t(Q) dS

with the normal pointing out of the domain.  Consequently the closed-surface
identity  int T dS = -I  holds for any surface enclosing the source point.
"""
from __future__ import annotations

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
        if not self.youngs_modulus > 0.0:
            raise ModelError("Young's modulus must be positive")
        if not -1.0 < self.poisson_ratio < 0.5:
            raise ModelError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


def _radii(source: np.ndarray, points: np.ndarray):
    diff = points - source
    r = np.linalg.norm(diff, axis=-1)
    if np.any(r == 0.0):
        raise KernelSingularityError("field point coincides with the source point")
    return diff / r[..., None], r


def kelvin_U_many(source, points, material: Material,
                  tractions) -> np.ndarray:
    """Displacement kernel times ``tractions``, U t; shape (..., 3).

    ``source``, ``points`` and ``tractions`` broadcast: (1, n, 3) sources
    against (m, 1, 3) points give every pair. No 3x3 block is formed.
    """
    source = np.asarray(source, dtype=float)
    points = np.asarray(points, dtype=float)
    rdir, r = _radii(source, points)
    nu = material.poisson_ratio
    g = material.shear_modulus
    c = 1.0 / (16.0 * np.pi * g * (1.0 - nu))
    tractions = np.asarray(tractions, dtype=float)
    rdt = np.einsum("...i,...i->...", rdir, tractions)
    out = (3.0 - 4.0 * nu) * tractions + rdir * rdt[..., None]
    return c * out / r[..., None]


def kelvin_T_many(source, points, normals, material: Material) -> np.ndarray:
    """Traction kernel at many field points; shape (..., 3, 3).

    ``normals`` are unit normals at the field points, pointing out of the
    domain the identity is written for. ``source``, ``points`` and
    ``normals`` broadcast against each other as in ``kelvin_U_many``.
    """
    source = np.asarray(source, dtype=float)
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    rdir, r = _radii(source, points)
    nu = material.poisson_ratio
    two_nu = 1.0 - 2.0 * nu
    scale = -1.0 / (8.0 * np.pi * (1.0 - nu)) / r**2
    drdn = np.einsum("...i,...i->...", rdir, normals)
    # scale * (drdn * (two_nu I + 3 r r^T) + two_nu * (n r^T - r n^T))
    radial = (3.0 * scale * drdn)[..., None] * rdir
    turn = (two_nu * scale)[..., None] * normals
    out = (radial + turn)[..., :, None] * rdir[..., None, :]
    out -= rdir[..., :, None] * turn[..., None, :]
    out.reshape(*out.shape[:-2], 9)[..., ::4] += \
        (two_nu * scale * drdn)[..., None]
    return out
