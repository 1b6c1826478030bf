"""B-spline basis machinery: values, and first derivatives from the same
recursion, per knot span or as full rows; a fixed-order row sum; Greville
abscissae, degree-elevated spaces and B-spline curves.

A :class:`BasisSpace` holds its knots as a read-only array.  All knot
vectors are open (clamped): the end knots repeat ``degree + 1`` times.
Indexing is 0-based throughout.  Evaluation uses half-open knot
spans, with the single special case at the right end of the domain where the
limit from the left is returned, so the last basis function takes the value
1 there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SplineError

__all__ = [
    "BasisSpace",
    "unit_interval_space",
    "bspline_basis_many",
    "bspline_basis_derivs_many",
    "bspline_span_basis",
    "fixed_order_sum",
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
class BasisSpace:
    """An open (clamped) B-spline basis of a given degree.

    ``knots`` is a read-only 1-D array; the number of basis functions is
    ``len(knots) - degree - 1``.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        kv = _readonly(np.atleast_1d(self.knots))
        if kv.ndim != 1:
            raise SplineError("knot vector must be one-dimensional")
        if not np.all(np.isfinite(kv)):
            raise SplineError("knot values must be finite")
        if np.any(np.diff(kv) < 0.0):
            raise SplineError("knot values must be non-decreasing")
        object.__setattr__(self, "knots", kv)
        p = self.degree
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise SplineError("degree must be a non-negative integer")
        object.__setattr__(self, "degree", int(p))
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
        return float(self.knots[0]), float(self.knots[-1])

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct knot values and their multiplicities."""
        kv = self.knots
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
    return BasisSpace(kv, degree)


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
                   spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the basis functions supported on each span, at degree p
    and at the degree p - 1 that the last step starts from.

    Returns ``(lower, vals)``, shapes (len(us), p) and (len(us), p + 1);
    column r holds basis function ``span - p + 1 + r``, resp. ``span - p + r``.
    """
    m = us.size
    # two buffers take turns holding degree j - 1 and degree j
    vals = np.zeros((m, p + 1))
    vals[:, 0] = 1.0
    lower = np.zeros((m, p + 1))
    left = np.zeros((m, p + 1))
    right = np.zeros((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = us - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - us
        lower, vals = vals, lower
        saved = np.zeros(m)
        for r in range(j):
            tmp = lower[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        vals[:, j] = saved
    return lower[:, :p], vals


def bspline_span_basis(space: BasisSpace, us, derivs: bool = False):
    """The nonzero basis values at each parameter, and with ``derivs`` their
    first derivatives.

    Returns ``(first, tables)``: ``first[i]`` indexes the first of the
    p + 1 basis functions supported on the knot span of ``us[i]``, and
    ``tables`` is a list of (len(us), p + 1) arrays, the values and then,
    with ``derivs``, the derivatives, column r for basis function
    ``first + r``.  The derivatives come from the degree p - 1 values of
    the same recursion by de Boor's formula
    N'_{i,p} = p (N_{i,p-1} / d_i - N_{i+1,p-1} / d_{i+1}), where
    d_i = t_{i+p} - t_i is the support length of N_{i,p-1}.  At degree 0
    they are zero.  Every entry is computed from its own parameter alone.
    """
    us = _prepare_params(space, us)
    kv, p = space.knots, space.degree
    spans = _find_spans(kv, p, us)
    lower, vals = _nonzero_basis(kv, p, us, spans)
    if not derivs:
        return spans - p, [vals]
    # d for column r is t[span + r + 1] - t[span + r + 1 - p], summed from
    # the same two differences as the last step's denominators
    ends = spans[:, None] + np.arange(1, p + 1)
    d = (kv[ends] - us[:, None]) + (us[:, None] - kv[ends - p])
    quotients = (1.0 / d) * lower
    # column r: p (quotients[r - 1] - quotients[r]), each missing term zero
    ders = np.zeros_like(vals)
    ders[:, 1:] = quotients
    ders[:, :p] -= quotients
    ders *= float(p)
    return spans - p, [vals, ders]


def fixed_order_sum(table: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Row-wise sum over r of ``table[:, r] * terms[:, r]``, added in the
    order r = 0, 1, ... as separate element-wise operations.

    ``table`` is (m, k) and ``terms`` (m, k, ...).  Each result row depends
    only on its own inputs, never on how many rows are evaluated together.
    """
    table = table.reshape(table.shape + (1,) * (terms.ndim - 2))
    total = table[:, 0] * terms[:, 0]
    for r in range(1, table.shape[1]):
        total += table[:, r] * terms[:, r]
    return total


def _scatter(first: np.ndarray, tables, n: int) -> np.ndarray:
    """Expand per-span tables, each (m, p+1), to full basis rows.

    Returns shape (m, len(tables), n); table k fills rows ``[:, k]``.
    """
    m = first.size
    out = np.zeros((m, len(tables), n))
    flat = out.reshape(-1)
    cols = (np.arange(m) * (len(tables) * n) + first)[:, None] \
        + np.arange(tables[0].shape[1])
    for table in tables:
        flat[cols] = table
        cols += n
    return out


def bspline_basis_many(space: BasisSpace, us) -> np.ndarray:
    """All basis values at each parameter; shape (len(us), n_basis).

    Each parameter must lie inside the knot domain (a relative slack of
    1e-12 is forgiven and clipped).  Each row is non-negative and sums to 1.
    """
    return _scatter(*bspline_span_basis(space, us), space.n_basis)[:, 0]


def bspline_basis_derivs_many(space: BasisSpace, us) -> np.ndarray:
    """Basis values and first derivatives, shape (len(us), 2, n_basis).

    Row 0 of the middle axis holds the values, row 1 the derivatives, the
    tables of ``bspline_span_basis`` spread over the whole basis.
    """
    return _scatter(*bspline_span_basis(space, us, derivs=True),
                    space.n_basis)


def greville_abscissae(space: BasisSpace) -> np.ndarray:
    """Greville abscissae: the mean of ``degree`` consecutive interior knots.

    One abscissa per basis function, in order, as a read-only array; for
    open knot vectors the first and last coincide exactly with the domain
    ends.  Degree 0 has no Greville points.
    """
    p = space.degree
    if p == 0:
        raise SplineError("Greville abscissae are not defined for degree 0")
    kv = space.knots
    n = space.n_basis
    windows = np.lib.stride_tricks.sliding_window_view(kv[1:n + p], p)
    return _readonly(windows.mean(axis=1))


def elevate_space(space: BasisSpace, new_degree: int) -> BasisSpace:
    """The degree-elevated space: every distinct knot's multiplicity grows by
    the degree increment, which preserves interior continuity."""
    t = new_degree - space.degree
    if t <= 0:
        raise SplineError("new degree must exceed the current degree")
    uniques, counts = space.breakpoints()
    new_kv = np.repeat(uniques, counts + t)
    return BasisSpace(new_kv, new_degree)


def bspline_curve_derivs(space: BasisSpace, control_points, ts) -> np.ndarray:
    """Curve points and first parameter derivatives at each ``t``.

    ``control_points`` has shape (n_basis, point_dim); the result has shape
    (len(ts), 2, point_dim), with the curve points at index 0 of the middle
    axis.
    """
    controls = np.asarray(control_points, dtype=float)
    if controls.shape[0] != space.n_basis:
        raise SplineError(
            f"expected {space.n_basis} coefficient rows, got {controls.shape[0]}"
        )
    first, tables = bspline_span_basis(space, ts, derivs=True)
    near = controls[first[:, None] + np.arange(space.degree + 1)]
    return np.stack([fixed_order_sum(table, near) for table in tables], axis=1)
