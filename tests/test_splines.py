"""Basis evaluation, Greville abscissae, degree elevation, and curves."""
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from gibem.errors import ParameterDomainError, SplineError
from gibem.splines import (
    BasisSpace,
    bspline_basis_derivs_many,
    bspline_basis_many,
    bspline_curve_derivs,
    elevate_space,
    greville_abscissae,
    unit_interval_space,
)


def basis_at(space, u):
    """All basis values at one parameter, as a one-row batch."""
    return bspline_basis_many(space, [u])[0]


def derivs_at(space, u):
    """Values and first derivatives at one parameter, as a one-row batch."""
    return bspline_basis_derivs_many(space, [u])[0]


@st.composite
def basis_spaces(draw, max_degree=5, max_interior=4):
    """Random clamped spaces on [0, 1], possibly with repeated interior knots."""
    degree = draw(st.integers(1, max_degree))
    n_breaks = draw(st.integers(0, max_interior))
    breaks = draw(
        st.lists(
            st.floats(0.05, 0.95),
            min_size=n_breaks,
            max_size=n_breaks,
            unique_by=lambda x: round(x, 3),
        )
    )
    interior = []
    for b in sorted(breaks):
        mult = draw(st.integers(1, degree))
        interior.extend([b] * mult)
    return unit_interval_space(degree, interior)


class TestKnotVectorValidation:
    def test_rejects_decreasing(self):
        with pytest.raises(SplineError, match="non-decreasing"):
            BasisSpace([0.0, 0.5, 0.4, 1.0], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SplineError, match="finite"):
            BasisSpace([0.0, 0.0, bad, 1.0, 1.0], 1)

    def test_knots_are_a_read_only_array(self):
        space = BasisSpace([0, 0, 1, 1], 1)
        assert space.knots.dtype == float and space.knots.ndim == 1
        with pytest.raises(ValueError):
            space.knots[1] = 0.5

    def test_rejects_unclamped(self):
        with pytest.raises(SplineError, match="open"):
            BasisSpace([0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0], 2)

    def test_rejects_too_short(self):
        with pytest.raises(SplineError):
            BasisSpace([0.0, 0.0, 1.0, 1.0], 2)

    def test_counts(self):
        space = unit_interval_space(2, [0.5])
        assert space.n_basis == 4
        assert len(space.knots) == space.n_basis + space.degree + 1


def test_quadratic_single_span_values():
    space = unit_interval_space(2)
    assert_allclose(basis_at(space, 0.5), [0.25, 0.5, 0.25], atol=1e-15)
    assert_allclose(basis_at(space, 0.0), [1.0, 0.0, 0.0], atol=0)
    # evaluation at the right end takes the limit from the left
    assert_allclose(basis_at(space, 1.0), [0.0, 0.0, 1.0], atol=0)


def test_domain_violation_raises():
    space = unit_interval_space(2)
    with pytest.raises(ParameterDomainError):
        basis_at(space, 1.5)
    with pytest.raises(ParameterDomainError):
        basis_at(space, -0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_raises(bad):
    space = unit_interval_space(2)
    with pytest.raises(ParameterDomainError):
        bspline_basis_many(space, [0.5, bad])
    with pytest.raises(ParameterDomainError):
        bspline_basis_derivs_many(space, [bad])


def test_tiny_roundoff_overshoot_is_clipped():
    space = unit_interval_space(3)
    vals = basis_at(space, 1.0 + 1e-15)
    assert_allclose(vals, basis_at(space, 1.0), atol=0)


@settings(max_examples=200, deadline=None)
@given(basis_spaces(), st.floats(0.0, 1.0))
def test_partition_of_unity_and_positivity(space, u):
    vals = basis_at(space, u)
    assert abs(vals.sum() - 1.0) < 1e-12
    assert np.all(vals >= -1e-14)


@settings(max_examples=200, deadline=None)
@given(basis_spaces(), st.floats(0.001, 0.999))
def test_local_support(space, u):
    """At most degree + 1 basis functions are nonzero at any parameter."""
    vals = basis_at(space, u)
    assert np.count_nonzero(vals) <= space.degree + 1


@settings(max_examples=150, deadline=None)
@given(basis_spaces(max_degree=4), st.floats(0.01, 0.99))
def test_derivative_rows_sum_to_zero(space, u):
    ders = derivs_at(space, u)
    assert abs(ders[0].sum() - 1.0) < 1e-12
    assert abs(ders[1].sum()) < 1e-11


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(50):
        degree = int(rng.integers(2, 6))
        interior = np.sort(rng.uniform(0.15, 0.85, int(rng.integers(0, 4))))
        space = unit_interval_space(degree, interior)
        u = float(rng.uniform(0.02, 0.98))
        h = 1e-6
        ders = derivs_at(space, u)
        fd = (basis_at(space, u + h) - basis_at(space, u - h)) / (2 * h)
        assert_allclose(ders[1], fd, atol=5e-7 * max(1.0, np.abs(ders[1]).max()))


def test_derivatives_above_degree_are_zero():
    space = unit_interval_space(0, [0.5])
    for u in (0.0, 0.3, 0.5, 1.0):
        ders = derivs_at(space, u)
        assert_allclose(ders[1], 0.0, atol=0)


@pytest.mark.parametrize("degree", range(1, 7))
def test_bernstein_derivatives_closed_form(degree):
    """On one span, N'_{r,p} = p (B_{r-1,p-1} - B_{r,p-1}) with Bernstein B."""
    us = np.linspace(0.0, 1.0, 41)[:, None]
    ders = bspline_basis_derivs_many(unit_interval_space(degree), us[:, 0])
    r = np.arange(degree)
    binom = np.array([comb(degree - 1, k) for k in r], dtype=float)
    bernstein = binom * us ** r * (1.0 - us) ** (degree - 1 - r)
    padded = np.pad(bernstein, ((0, 0), (1, 1)))
    expected = degree * (padded[:, :-1] - padded[:, 1:])
    # the absolute floor covers entries that cancel to round-off near zero
    assert_allclose(ders[:, 1], expected, rtol=1e-13, atol=1e-14 * degree)


@settings(max_examples=150, deadline=None)
@given(basis_spaces(max_degree=7), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_derivative_table_values_row_is_the_value_table(space, us):
    us = np.concatenate([us, space.knots, [0.0, 1.0]])
    ders = bspline_basis_derivs_many(space, us)
    assert np.array_equal(ders[:, 0], bspline_basis_many(space, us))


def test_batch_rows_match_one_row_batches():
    space = unit_interval_space(3, [0.3, 0.3, 0.7])
    us = np.linspace(0, 1, 23)
    table = bspline_basis_many(space, us)
    ders = bspline_basis_derivs_many(space, us)
    for i, u in enumerate(us):
        assert_allclose(table[i], basis_at(space, float(u)), atol=0)
        assert_allclose(ders[i], derivs_at(space, float(u)), atol=0)


class TestGreville:
    def test_interior_knot_example(self):
        space = unit_interval_space(2, [0.5])
        assert_allclose(
            greville_abscissae(space), [0.0, 0.25, 0.75, 1.0], atol=0
        )

    def test_endpoints_exact(self):
        space = unit_interval_space(4, [0.21, 0.47, 0.92])
        pts = greville_abscissae(space)
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_count_matches_basis(self):
        space = unit_interval_space(3, [0.2, 0.4, 0.6, 0.8])
        assert len(greville_abscissae(space)) == space.n_basis

    def test_read_only(self):
        pts = greville_abscissae(unit_interval_space(2, [0.5]))
        with pytest.raises(ValueError):
            pts[1] = 0.5

    def test_degree_zero_unsupported(self):
        space = unit_interval_space(0, [0.5])
        with pytest.raises(SplineError):
            greville_abscissae(space)

    @settings(max_examples=100, deadline=None)
    @given(basis_spaces())
    def test_sorted_within_domain(self, space):
        pts = greville_abscissae(space)
        assert np.all(np.diff(pts) >= 0)
        assert pts[0] >= 0.0 and pts[-1] <= 1.0


class TestDegreeElevate:
    def test_single_span_arithmetic(self):
        space = unit_interval_space(2)
        elevated = elevate_space(space, 4)
        assert elevated.n_basis == 5
        assert_allclose(elevated.knots, [0] * 5 + [1] * 5, atol=0)

    def test_interior_multiplicity_grows(self):
        space = unit_interval_space(2, [0.5])
        elevated = elevate_space(space, 3)
        assert list(elevated.knots).count(0.5) == 2

    def test_must_increase(self):
        space = unit_interval_space(2)
        with pytest.raises(SplineError):
            elevate_space(space, 2)

    @settings(max_examples=60, deadline=None)
    @given(basis_spaces(max_degree=3, max_interior=3), st.integers(1, 2))
    def test_preserves_evaluation(self, space, bump):
        # the elevated space holds every function of the original one, so
        # interpolating at its Greville points reproduces the function
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(space.n_basis, 2))
        elevated = elevate_space(space, space.degree + bump)
        grev = greville_abscissae(elevated)
        new_coeffs = np.linalg.solve(bspline_basis_many(elevated, grev),
                                     bspline_basis_many(space, grev) @ coeffs)
        us = np.linspace(0, 1, 37)
        before = bspline_basis_many(space, us) @ coeffs
        after = bspline_basis_many(elevated, us) @ new_coeffs
        assert_allclose(after, before, atol=1e-10)


def test_curve_point_and_derivs():
    space = unit_interval_space(1)
    controls = np.array([[0.25, 0.0], [0.25, 1.0]])
    point = bspline_curve_derivs(space, controls, [0.5])[:, 0]
    assert_allclose(point, [[0.25, 0.5]], atol=0)
    ders = bspline_curve_derivs(space, controls, [0.2, 0.8])
    assert ders.shape == (2, 2, 2)
    assert_allclose(ders[:, 1, :], [[0.0, 1.0], [0.0, 1.0]], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(basis_spaces(max_degree=4), st.integers(0, 2**32 - 1))
def test_curve_rows_are_batch_independent_and_match_the_dense_sum(space, seed):
    rng = np.random.default_rng(seed)
    controls = rng.uniform(0, 1, (space.n_basis, 2))
    ts = np.concatenate([space.knots, rng.uniform(0, 1, 100)])
    ders = bspline_curve_derivs(space, controls, ts)
    for i, t in enumerate(ts):
        assert np.array_equal(ders[i], bspline_curve_derivs(space, controls, [t])[0])
    table = bspline_basis_derivs_many(space, ts)
    dense = np.einsum("mkn,nd->mkd", table, controls)
    size = np.einsum("mkn,nd->mkd", abs(table), abs(controls))
    assert (abs(ders - dense) <= 1e-14 * size).all()


def test_coefficient_count_mismatch():
    space = unit_interval_space(2)
    with pytest.raises(SplineError, match="coefficient"):
        bspline_curve_derivs(space, np.zeros((5, 2)), [0.5])
