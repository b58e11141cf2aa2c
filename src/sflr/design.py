"""Datasets on a shared grid and the design/penalty matrices built from them."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import (BSplineBasis, _support_windows, eval_basis_many,
                    gram_block)


@dataclass(frozen=True)
class FunctionalDataset:
    """Curves sampled on one strictly increasing grid, optionally labeled.

    values[i] is sample i on ``grid``; labels, when present, are 0/1.
    """

    grid: np.ndarray
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-D with at least 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if values.shape[1] != grid.size:
            raise ValueError(f"values have {values.shape[1]} columns but the "
                             f"grid has {grid.size} points")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (values.shape[0],):
                raise ValueError("labels length must equal the number of rows")
            if not np.isin(labels, [0, 1]).all():
                raise ValueError("labels must be 0 or 1")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class DesignMatrices:
    """U (integrated design), V (roughness Gram of order m), and W_blocks,
    the (M, d+1, d+1) stack of order-0 Gram blocks from ``gram_block``."""

    U: np.ndarray
    V: np.ndarray
    W_blocks: np.ndarray = field(repr=False)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite-trapezoid quadrature weights for a (possibly uneven) grid."""
    d = np.diff(grid)
    w = np.zeros_like(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def compute_U(data: FunctionalDataset, basis: BSplineBasis) -> np.ndarray:
    """Integrated design matrix: row i approximates the integral of x_i
    against each basis function, by composite trapezoid on the data grid."""
    if data.n_samples == 0:
        raise ValueError("dataset has no samples")
    if data.grid[0] < 0.0 or data.grid[-1] > basis.domain_end:
        raise ValueError("data grid extends outside the basis domain")
    E = eval_basis_many(basis, data.grid)
    w = trapezoid_weights(data.grid)
    return (data.values * w) @ E


@lru_cache(maxsize=16)
def _scatter_index(M: int, k: int, pad: int) -> np.ndarray:
    """Flat n x n positions, n = M + k - 1 + pad, of an (M, k, k) block
    stack placed after ``pad`` leading rows and columns, read-only."""
    n = M + k - 1 + pad
    rows = pad + _support_windows(M, k)
    index = (rows[:, :, None] * n + rows[:, None, :]).ravel()
    index.flags.writeable = False
    return index


def assemble_blocks(blocks: np.ndarray, weights=None,
                    pad: int = 0) -> np.ndarray:
    """Dense L x L sum of an (M, d+1, d+1) block stack, block j scaled by
    weights[j] (default 1) and added at rows and columns j..j+d.

    With ``pad`` > 0 the result is (L + pad) x (L + pad): ``pad`` zero
    rows and columns first, then the L x L sum. Every entry accumulates
    its blocks in block order.
    """
    M, k, _ = blocks.shape
    n = M + k - 1 + pad
    if weights is not None:
        blocks = blocks * np.asarray(weights)[:, None, None]
    return np.bincount(_scatter_index(M, k, pad), weights=blocks.ravel(),
                       minlength=n * n).reshape(n, n)


def compute_V(basis: BSplineBasis, m: int) -> np.ndarray:
    """Roughness Gram matrix: integral of outer products of m-th derivatives."""
    if not 1 <= m <= basis.degree - 1:
        raise ValueError(f"derivative order m={m} outside [1, {basis.degree - 1}]")
    return assemble_blocks(gram_block(basis, m))


def build_design(data: FunctionalDataset, basis: BSplineBasis, m: int = 2) -> DesignMatrices:
    return DesignMatrices(U=compute_U(data, basis), V=compute_V(basis, m),
                          W_blocks=gram_block(basis, 0))
