"""Clamped B-spline bases on [0, T]: evaluation, derivatives, exact Gram blocks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped B-spline basis with equally spaced interior knots.

    ``interior_interval_count`` (M) subintervals on [0, T] give
    M + degree basis functions; boundary knots are repeated degree+1
    times. Immutable, safe to share across threads.
    """

    domain_end: float
    degree: int
    interior_interval_count: int
    knot_vector: np.ndarray = field(repr=False)
    domain_start: float = 0.0

    @property
    def basis_count(self) -> int:
        return self.interior_interval_count + self.degree

    @property
    def breakpoints(self) -> np.ndarray:
        """The M+1 distinct knots bounding the subintervals."""
        return np.linspace(self.domain_start, self.domain_end,
                           self.interior_interval_count + 1)

    def support_intervals(self, l: int) -> range:
        """0-based subinterval indices on which basis function l is nonzero."""
        lo = max(0, l - self.degree)
        hi = min(self.interior_interval_count - 1, l)
        return range(lo, hi + 1)


def make_basis(domain_end: float, degree: int, interval_count: int) -> BSplineBasis:
    """Build a clamped basis on [0, domain_end] with equally spaced knots."""
    if not domain_end > 0:
        raise ValueError(f"domain_end must be positive, got {domain_end}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if interval_count < 1:
        raise ValueError(f"interval_count must be >= 1, got {interval_count}")
    breaks = np.linspace(0.0, float(domain_end), interval_count + 1)
    knots = np.concatenate([
        np.zeros(degree), breaks, np.full(degree, float(domain_end)),
    ])
    return BSplineBasis(float(domain_end), int(degree), int(interval_count), knots)


def _de_boor(knots: np.ndarray, degree: int, points: np.ndarray,
             deriv: int) -> np.ndarray:
    """Local de Boor evaluation of a clamped basis: (len(points), L) matrix.

    On a point's span s (knots[s] <= t < knots[s+1], the last nonempty
    span closed so the right endpoint takes its left limit) only the d+1
    functions s-d..s are nonzero. The Cox-de Boor recurrence runs level by
    level on those live columns; the last ``deriv`` levels use the
    derivative recurrence. Column r of level k divides by
    knots[s+1+r] - knots[s-k+1+r], a knot pair around [knots[s], knots[s+1]],
    so no denominator is zero.
    """
    d = degree
    span = np.minimum(np.searchsorted(knots, points, side="right") - 1,
                      knots.size - d - 2)[:, None]
    live = np.ones((points.size, 1))
    for k in range(1, d + 1):
        r = np.arange(k)
        lo, hi = knots[span - k + 1 + r], knots[span + 1 + r]
        den = hi - lo
        new = np.zeros((points.size, k + 1))
        if k <= d - deriv:
            new[:, :k] = (hi - points[:, None]) / den * live
            new[:, 1:] += (points[:, None] - lo) / den * live
        else:
            slope = k / den * live
            new[:, 1:] = slope
            new[:, :k] -= slope
        live = new
    out = np.zeros((points.size, knots.size - d - 1))
    np.put_along_axis(out, span - d + np.arange(d + 1), live, axis=1)
    return out


def eval_basis_many(basis: BSplineBasis, points, derivative_order: int = 0) -> np.ndarray:
    """Evaluate every basis function (or derivative) at an array of points.

    Returns an (n_points, L) matrix.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.float64))
    if pts.size and (pts.min() < basis.domain_start or pts.max() > basis.domain_end):
        raise ValueError("evaluation points outside the basis domain "
                         f"[{basis.domain_start}, {basis.domain_end}]")
    if not 0 <= derivative_order <= basis.degree:
        raise ValueError(f"derivative order {derivative_order} outside "
                         f"[0, {basis.degree}]")
    return _de_boor(basis.knot_vector, basis.degree, pts, derivative_order)


def eval_basis(basis: BSplineBasis, t: float, derivative_order: int = 0) -> np.ndarray:
    """Evaluate all L basis functions at a single point (vector of length L)."""
    return eval_basis_many(basis, [t], derivative_order)[0]


def _gauss_legendre(a: float, b: float, n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def gram_block(basis: BSplineBasis, interval_index: int, derivative_order: int = 0) -> np.ndarray:
    """Exact Gram matrix of derivative-order basis vectors over one subinterval.

    ``interval_index`` is 1-based (1..M). Gauss-Legendre with
    degree - derivative_order + 1 nodes is exact for the degree
    2(degree - derivative_order) polynomial integrand.
    """
    M = basis.interior_interval_count
    if not 1 <= interval_index <= M:
        raise ValueError(f"interval index {interval_index} outside [1, {M}]")
    if not 0 <= derivative_order <= basis.degree - 1:
        raise ValueError(f"derivative order {derivative_order} outside "
                         f"[0, {basis.degree - 1}]")
    breaks = basis.breakpoints
    a, b = breaks[interval_index - 1], breaks[interval_index]
    nodes, weights = _gauss_legendre(a, b, basis.degree - derivative_order + 1)
    E = eval_basis_many(basis, nodes, derivative_order)
    G = (E * weights[:, None]).T @ E
    return 0.5 * (G + G.T)
