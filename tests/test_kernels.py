"""The local de Boor kernel behind eval_basis_many against scipy's BSpline."""
import numpy as np
import pytest
from scipy.interpolate import BSpline

from sflr.basis import eval_basis_many, make_basis


def _scipy_design(basis, points, deriv):
    knots, degree = basis.knot_vector, basis.degree
    out = np.zeros((points.size, basis.basis_count))
    for l in range(basis.basis_count):
        coef = np.zeros(basis.basis_count)
        coef[l] = 1.0
        # extrapolate=True evaluates the right endpoint on the last piece,
        # i.e. its left limit, the value the clamped basis takes there
        spl = BSpline(knots, coef, degree, extrapolate=True)
        if deriv:
            spl = spl.derivative(deriv)
        out[:, l] = spl(points)
    return out


def _points(basis, n_uniform=257):
    """A uniform grid plus every breakpoint, both endpoints included."""
    return np.sort(np.concatenate([
        np.linspace(0.0, basis.domain_end, n_uniform),
        basis.breakpoints]))


def _assert_matches_scipy(basis, deriv):
    pts = _points(basis)
    ours = eval_basis_many(basis, pts, deriv)
    ref = _scipy_design(basis, pts, deriv)
    scale = max(1.0, np.abs(ref).max())
    assert np.max(np.abs(ours - ref)) / scale < 1e-10


@pytest.mark.parametrize("degree,intervals", [(1, 4), (2, 5), (3, 8), (4, 6)])
@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_matches_scipy(degree, intervals, deriv):
    if deriv > degree:
        pytest.skip("derivative order exceeds degree")
    _assert_matches_scipy(make_basis(1.0, degree, intervals), deriv)


@pytest.mark.parametrize("degree,intervals,domain_end",
                         [(1, 1, 1.0), (2, 1, 2.5), (5, 3, 1.0),
                          (5, 37, 1.0), (3, 100, 3.7)])
def test_matches_scipy_every_derivative(degree, intervals, domain_end):
    basis = make_basis(domain_end, degree, intervals)
    for deriv in range(degree + 1):
        _assert_matches_scipy(basis, deriv)


def test_interior_points_partition_of_unity():
    basis = make_basis(1.0, 3, 30)
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.uniform(0.0, 1.0, 500), basis.breakpoints])
    E = eval_basis_many(basis, pts)
    assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12
