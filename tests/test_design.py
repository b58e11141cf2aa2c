"""Dataset validation and the U / V / W design matrices."""
import numpy as np
import pytest

from sflr.basis import eval_basis_many, gram_block, make_basis
from sflr.design import (FunctionalDataset, assemble_blocks, build_design,
                         compute_U, compute_V, trapezoid_weights)
from sflr.solver import interval_norms


@pytest.fixture(scope="module")
def cubic():
    return make_basis(1.0, 3, 30)


def _grid(n=101):
    return np.linspace(0.0, 1.0, n)


class TestFunctionalDataset:
    def test_valid_construction(self):
        d = FunctionalDataset(_grid(), np.ones((4, 101)), [0, 1, 0, 1])
        assert d.n_samples == 4 and d.n_points == 101

    def test_single_row_is_promoted(self):
        d = FunctionalDataset(_grid(5), np.ones(5))
        assert d.values.shape == (1, 5)

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FunctionalDataset([0.0, 0.5, 0.5, 1.0], np.ones((1, 4)))

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            FunctionalDataset(_grid(5), np.ones((2, 4)))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            FunctionalDataset(_grid(5), np.ones((2, 5)), [0, 2])
        with pytest.raises(ValueError, match="labels"):
            FunctionalDataset(_grid(5), np.ones((2, 5)), [0, 1, 1])


def test_trapezoid_weights_integrate_linears():
    g = np.array([0.0, 0.1, 0.4, 1.0])
    w = trapezoid_weights(g)
    assert w.sum() == pytest.approx(1.0)
    assert w @ g == pytest.approx(0.5, abs=1e-12)  # integral of t on [0,1]


def test_compute_U_constant_rows_sum_to_T(cubic):
    data = FunctionalDataset(_grid(2001), np.ones((3, 2001)))
    U = compute_U(data, cubic)
    np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-6)


def test_compute_U_basis_function_matches_gram_row(cubic):
    ts = _grid(10_001)
    k = 12
    xk = eval_basis_many(cubic, ts)[:, k]
    U = compute_U(FunctionalDataset(ts, xk), cubic)
    gram_row = assemble_blocks(gram_block(cubic, 0))[k]
    assert np.max(np.abs(U[0] - gram_row)) / np.max(np.abs(gram_row)) < 1e-4


def test_compute_U_linear_in_data(cubic):
    rng = np.random.default_rng(5)
    ts = _grid()
    x1, x2 = rng.standard_normal((2, ts.size))
    U = lambda x: compute_U(FunctionalDataset(ts, x), cubic)[0]
    np.testing.assert_allclose(U(2.5 * x1 + x2), 2.5 * U(x1) + U(x2),
                               rtol=1e-12, atol=1e-15)


def test_compute_U_grid_refinement_converges(cubic):
    # trapezoid error shrinks at second order under grid refinement
    f = lambda t: np.sin(2 * np.pi * t) + t ** 2
    ref = compute_U(FunctionalDataset(_grid(6401), f(_grid(6401))), cubic)
    err = [np.max(np.abs(
        compute_U(FunctionalDataset(_grid(n), f(_grid(n))), cubic) - ref))
        for n in (101, 201, 401)]
    assert err[1] < err[0] / 3.0 and err[2] < err[1] / 3.0
    assert err[2] / np.max(np.abs(ref)) < 2e-3


def test_compute_U_validation(cubic):
    with pytest.raises(ValueError, match="outside"):
        compute_U(FunctionalDataset([0.0, 1.5], np.ones((1, 2))), cubic)


def test_compute_V_annihilates_constant_and_line(cubic):
    V = compute_V(cubic, 2)
    ones = np.ones(cubic.basis_count)
    assert abs(ones @ V @ ones) < 1e-10
    ts = np.linspace(0, 1, 3001)
    line = np.linalg.lstsq(eval_basis_many(cubic, ts), 2 * ts - 0.3,
                           rcond=None)[0]
    # compare against the roundoff scale of the cancelling quadratic form
    scale = np.abs(line) @ np.abs(V) @ np.abs(line)
    assert abs(line @ V @ line) < 1e-12 * scale


def test_compute_V_quadratic_curvature(cubic):
    # beta(t) = t^2 has second derivative 2, so the form equals 4
    ts = np.linspace(0, 1, 3001)
    b = np.linalg.lstsq(eval_basis_many(cubic, ts), ts ** 2, rcond=None)[0]
    V = compute_V(cubic, 2)
    assert b @ V @ b == pytest.approx(4.0, abs=1e-8)


def test_compute_V_order_validation(cubic):
    with pytest.raises(ValueError):
        compute_V(cubic, 0)
    with pytest.raises(ValueError):
        compute_V(cubic, 3)


def test_W_blocks_sum_to_full_gram(cubic):
    # the loop over dense per-interval blocks is the reference for the scatter
    blocks = gram_block(cubic, 0)
    assert len(blocks) == 30
    L = cubic.basis_count
    total = np.zeros((L, L))
    for j, W in enumerate(blocks):
        total[j:j + 4, j:j + 4] += W
    np.testing.assert_allclose(assemble_blocks(blocks), total, atol=1e-14)
    weights = np.random.default_rng(3).uniform(0.5, 2.0, 30)
    total = np.zeros((L, L))
    for j, (c, W) in enumerate(zip(weights, blocks)):
        total[j:j + 4, j:j + 4] += c * W
    np.testing.assert_allclose(assemble_blocks(blocks, weights), total,
                               atol=1e-14)


def test_W_block_quadratic_forms(cubic):
    blocks = gram_block(cubic, 0)
    rng = np.random.default_rng(9)
    b = rng.standard_normal(cubic.basis_count)
    ones = np.ones(cubic.basis_count)
    for j, W in enumerate(blocks):
        bj = b[j:j + 4]
        assert bj @ W @ bj >= 0.0
        # integral of 1 over one subinterval
        assert ones[j:j + 4] @ W @ ones[j:j + 4] == pytest.approx(
            1.0 / 30.0, abs=1e-12)


def test_interval_norms_tile_the_l2_norm(cubic):
    # sum of squared subinterval norms equals the full integral of beta^2
    rng = np.random.default_rng(13)
    b = rng.standard_normal(cubic.basis_count)
    total = np.sum(interval_norms(b, gram_block(cubic, 0)) ** 2)
    ts = np.linspace(0, 1, 200_001)
    beta = eval_basis_many(cubic, ts) @ b
    ref = np.trapezoid(beta ** 2, ts)
    assert total == pytest.approx(ref, rel=1e-8)


def test_build_design_shapes(cubic):
    rng = np.random.default_rng(1)
    data = FunctionalDataset(_grid(), rng.standard_normal((7, 101)))
    design = build_design(data, cubic, m=2)
    L = cubic.basis_count
    assert design.U.shape == (7, L)
    assert design.V.shape == (L, L)
    assert len(design.W_blocks) == 30
