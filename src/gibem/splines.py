"""B-spline basis machinery: evaluation, derivatives, Greville abscissae,
degree-elevated spaces and B-spline curves.

All knot vectors are open (clamped): the end knots repeat ``degree + 1``
times.  Indexing is 0-based throughout.  Evaluation uses half-open knot
spans, with the single special case at the right end of the domain where the
limit from the left is returned, so the last basis function takes the value
1 there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SplineError

__all__ = [
    "KnotVector",
    "BasisSpace",
    "unit_interval_space",
    "bspline_basis_many",
    "bspline_basis_derivs_many",
    "greville_abscissae",
    "elevate_space",
    "bspline_curve_derivs",
]

_DOMAIN_RTOL = 1e-12


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class KnotVector:
    """A non-decreasing sequence of parameter values."""

    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(np.atleast_1d(self.values))
        if vals.ndim != 1:
            raise SplineError("knot vector must be one-dimensional")
        if vals.size < 2:
            raise SplineError("knot vector needs at least two entries")
        if np.any(np.diff(vals) < 0.0):
            raise SplineError("knot values must be non-decreasing")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])


@dataclass(frozen=True, eq=False)
class BasisSpace:
    """An open (clamped) B-spline basis of a given degree.

    The number of basis functions is ``len(knots) - degree - 1``.
    """

    knots: KnotVector
    degree: int

    def __post_init__(self):
        if not isinstance(self.knots, KnotVector):
            object.__setattr__(self, "knots", KnotVector(self.knots))
        p = self.degree
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise SplineError("degree must be a non-negative integer")
        object.__setattr__(self, "degree", int(p))
        kv = self.knots.values
        n = kv.size - p - 1
        if n < p + 1:
            raise SplineError(
                f"knot vector of length {kv.size} is too short for degree {p}"
            )
        if not (np.all(kv[: p + 1] == kv[0]) and np.all(kv[-(p + 1):] == kv[-1])):
            raise SplineError(
                "knot vector must be open: end knots repeated degree + 1 times"
            )
        if kv[0] == kv[-1]:
            raise SplineError("knot vector spans an empty interval")

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return self.knots.domain

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct knot values and their multiplicities."""
        kv = self.knots.values
        tol = _DOMAIN_RTOL * max(kv[-1] - kv[0], 1.0)
        uniques = [kv[0]]
        counts = [1]
        for t in kv[1:]:
            if t - uniques[-1] <= tol:
                counts[-1] += 1
            else:
                uniques.append(t)
                counts.append(1)
        return np.asarray(uniques), np.asarray(counts, dtype=int)


def unit_interval_space(degree: int, interior=()) -> BasisSpace:
    """Open basis on [0, 1] with optional interior knots (values only)."""
    kv = np.concatenate([
        np.zeros(degree + 1),
        np.asarray(sorted(interior), dtype=float),
        np.ones(degree + 1),
    ])
    return BasisSpace(KnotVector(kv), degree)


def _prepare_params(space: BasisSpace, us) -> np.ndarray:
    us = np.atleast_1d(np.asarray(us, dtype=float))
    lo, hi = space.domain
    tol = _DOMAIN_RTOL * (hi - lo)
    # written so that NaN, which fails every comparison, is flagged too
    bad = ~((us >= lo - tol) & (us <= hi + tol))
    if np.any(bad):
        u_bad = float(us[bad][0])
        raise ParameterDomainError(
            f"parameter {u_bad!r} outside knot domain [{lo!r}, {hi!r}]"
        )
    return np.clip(us, lo, hi)


def _find_spans(knots: np.ndarray, degree: int, us: np.ndarray) -> np.ndarray:
    n = knots.size - degree - 1
    spans = np.searchsorted(knots, us, side="right") - 1
    return np.clip(spans, degree, n - 1)


def _nonzero_basis(knots: np.ndarray, p: int, us: np.ndarray,
                   spans: np.ndarray) -> np.ndarray:
    """Values of the p + 1 basis functions supported on each span.

    Returns an array of shape (len(us), p + 1); column r holds the value of
    basis function ``span - p + r``.
    """
    m = us.size
    vals = np.zeros((m, p + 1))
    vals[:, 0] = 1.0
    left = np.zeros((m, p + 1))
    right = np.zeros((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = us - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - us
        saved = np.zeros(m)
        for r in range(j):
            tmp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        vals[:, j] = saved
    return vals


def _nonzero_basis_derivs(knots: np.ndarray, p: int, us: np.ndarray,
                          spans: np.ndarray, max_order: int) -> np.ndarray:
    """Basis values and derivatives on each span, shape (m, max_order+1, p+1).

    Standard triangular-table recursion; derivative orders above the degree
    come out as exact zeros.
    """
    m = us.size
    ndu = np.zeros((m, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    left = np.zeros((m, p + 1))
    right = np.zeros((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = us - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - us
        saved = np.zeros(m)
        for r in range(j):
            ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
            tmp = ndu[:, r, j - 1] / ndu[:, j, r]
            ndu[:, r, j] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        ndu[:, j, j] = saved

    ders = np.zeros((m, max_order + 1, p + 1))
    ders[:, 0, :] = ndu[:, :, p]
    n_eff = min(max_order, p)
    a = np.zeros((m, 2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[:, :, :] = 0.0
        a[:, 0, 0] = 1.0
        for k in range(1, n_eff + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[:, s2, 0] = a[:, s1, 0] / ndu[:, pk + 1, rk]
                d = a[:, s2, 0] * ndu[:, rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[:, s2, j] = (a[:, s1, j] - a[:, s1, j - 1]) / ndu[:, pk + 1, rk + j]
                d = d + a[:, s2, j] * ndu[:, rk + j, pk]
            if r <= pk:
                a[:, s2, k] = -a[:, s1, k - 1] / ndu[:, pk + 1, r]
                d = d + a[:, s2, k] * ndu[:, r, pk]
            ders[:, k, r] = d
            s1, s2 = s2, s1

    factor = float(p)
    for k in range(1, n_eff + 1):
        ders[:, k, :] *= factor
        factor *= p - k
    return ders


def _scatter(local: np.ndarray, spans: np.ndarray, p: int, n: int) -> np.ndarray:
    """Expand per-span values (m, p+1) to full basis rows (m, n)."""
    m = spans.size
    out = np.zeros((m, n))
    cols = spans[:, None] - p + np.arange(p + 1)[None, :]
    out[np.arange(m)[:, None], cols] = local
    return out


def bspline_basis_many(space: BasisSpace, us) -> np.ndarray:
    """All basis values at each parameter; shape (len(us), n_basis).

    Each parameter must lie inside the knot domain (a relative slack of
    1e-12 is forgiven and clipped).  Each row is non-negative and sums to 1.
    """
    us = _prepare_params(space, us)
    kv = space.knots.values
    spans = _find_spans(kv, space.degree, us)
    local = _nonzero_basis(kv, space.degree, us, spans)
    return _scatter(local, spans, space.degree, space.n_basis)


def bspline_basis_derivs_many(space: BasisSpace, us, max_order: int) -> np.ndarray:
    """Basis values and derivatives, shape (len(us), max_order + 1, n_basis).

    Row 0 of the middle axis holds the values; row k the k-th derivative.
    Orders above the degree are identically zero.
    """
    if max_order < 0:
        raise SplineError("max_order must be non-negative")
    us = _prepare_params(space, us)
    kv = space.knots.values
    spans = _find_spans(kv, space.degree, us)
    local = _nonzero_basis_derivs(kv, space.degree, us, spans, max_order)
    m = us.size
    out = np.zeros((m, max_order + 1, space.n_basis))
    cols = spans[:, None] - space.degree + np.arange(space.degree + 1)[None, :]
    out[np.arange(m)[:, None, None],
        np.arange(max_order + 1)[None, :, None],
        cols[:, None, :]] = local
    return out


def greville_abscissae(space: BasisSpace) -> np.ndarray:
    """Greville abscissae: the mean of ``degree`` consecutive interior knots.

    One abscissa per basis function, in order, as a read-only array; for
    open knot vectors the first and last coincide exactly with the domain
    ends.  Degree 0 has no Greville points.
    """
    p = space.degree
    if p == 0:
        raise SplineError("Greville abscissae are not defined for degree 0")
    kv = space.knots.values
    n = space.n_basis
    windows = np.lib.stride_tricks.sliding_window_view(kv[1:n + p], p)
    return _readonly(windows.mean(axis=1))


def _coeff_array(space: BasisSpace, coefficients) -> np.ndarray:
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.shape[0] != space.n_basis:
        raise SplineError(
            f"expected {space.n_basis} coefficient rows, got {coeffs.shape[0]}"
        )
    return coeffs


def elevate_space(space: BasisSpace, new_degree: int) -> BasisSpace:
    """The degree-elevated space: every distinct knot's multiplicity grows by
    the degree increment, which preserves interior continuity."""
    t = new_degree - space.degree
    if t <= 0:
        raise SplineError("new degree must exceed the current degree")
    uniques, counts = space.breakpoints()
    new_kv = np.repeat(uniques, counts + t)
    return BasisSpace(KnotVector(new_kv), new_degree)


def bspline_curve_derivs(space: BasisSpace, control_points, ts,
                         max_order: int = 1) -> np.ndarray:
    """Curve point and parameter derivatives at each ``t``.

    Shape (len(ts), max_order + 1, point_dim); index 0 of the middle axis is
    the curve point itself.
    """
    controls = _coeff_array(space, control_points)
    ders = bspline_basis_derivs_many(space, ts, max_order)
    stacked = controls if controls.ndim > 1 else controls[:, None]
    out = np.einsum("mkn,nd->mkd", ders, stacked)
    return out if controls.ndim > 1 else out[..., 0]
