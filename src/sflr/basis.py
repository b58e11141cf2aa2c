"""Clamped B-spline bases on [0, T]: evaluation, derivatives, exact Gram blocks."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
    # follows from the other three fields, so it takes no part in ==/hash
    knot_vector: np.ndarray = field(repr=False, compare=False)

    @property
    def basis_count(self) -> int:
        return self.interior_interval_count + self.degree

    @property
    def breakpoints(self) -> np.ndarray:
        """The M+1 distinct knots bounding the subintervals."""
        return np.linspace(0.0, self.domain_end,
                           self.interior_interval_count + 1)


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
    if pts.size and (pts.min() < 0.0 or pts.max() > basis.domain_end):
        raise ValueError("evaluation points outside the basis domain "
                         f"[0.0, {basis.domain_end}]")
    if not 0 <= derivative_order <= basis.degree:
        raise ValueError(f"derivative order {derivative_order} outside "
                         f"[0, {basis.degree}]")
    return _de_boor(basis.knot_vector, basis.degree, pts, derivative_order)


@lru_cache(maxsize=16)
def _support_windows(M: int, k: int) -> np.ndarray:
    """(M, k) read-only map: row j holds the k = degree + 1 functions live on
    0-based subinterval j, so function l lives on subintervals l-k+1..l."""
    windows = np.arange(M)[:, None] + np.arange(k)
    windows.flags.writeable = False
    return windows


def _subinterval_gauss(basis: BSplineBasis, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, n) nodes and weights of n-node Gauss-Legendre on each subinterval."""
    x, w = np.polynomial.legendre.leggauss(n)
    breaks = basis.breakpoints
    half = 0.5 * np.diff(breaks)[:, None]
    return breaks[:-1, None] + half * (x + 1.0), half * w


def gram_block(basis: BSplineBasis, derivative_order: int = 0) -> np.ndarray:
    """Exact Gram blocks of the derivative-order basis, one per subinterval.

    Returns an (M, d+1, d+1) stack: block j is the Gram matrix over 0-based
    subinterval j of row j of ``_support_windows``, the only functions
    nonzero there. Gauss-Legendre with degree - derivative_order + 1 nodes
    per subinterval is exact for the degree 2(degree - derivative_order)
    polynomial integrand; all nodes go through one basis evaluation.
    """
    d, M = basis.degree, basis.interior_interval_count
    if not 0 <= derivative_order <= d - 1:
        raise ValueError(f"derivative order {derivative_order} outside "
                         f"[0, {d - 1}]")
    nodes, weights = _subinterval_gauss(basis, d - derivative_order + 1)
    E = eval_basis_many(basis, nodes.ravel(), derivative_order)
    E = np.take_along_axis(E.reshape(*nodes.shape, -1),
                           _support_windows(M, d + 1)[:, None, :], axis=2)
    G = (E * weights[:, :, None]).transpose(0, 2, 1) @ E
    return 0.5 * (G + G.transpose(0, 2, 1))
