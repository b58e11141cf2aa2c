"""Clamped basis construction, evaluation, derivatives, and Gram blocks."""
import numpy as np
import pytest

from sflr.basis import (_subinterval_gauss, _support_windows, eval_basis_many,
                        gram_block, make_basis)
from sflr.design import assemble_blocks


@pytest.fixture(scope="module")
def cubic():
    return make_basis(1.0, 3, 30)


def test_counting_examples():
    assert make_basis(1.0, 3, 30).basis_count == 33
    assert make_basis(1.0, 4, 70).basis_count == 74
    assert make_basis(1.0, 3, 2).basis_count == 5


def test_interior_knots_equally_spaced(cubic):
    interior = cubic.knot_vector[cubic.degree:-cubic.degree]
    np.testing.assert_allclose(interior, np.arange(31) / 30.0, atol=1e-15)


def test_clamped_end_multiplicity(cubic):
    k = cubic.knot_vector
    assert np.sum(k == 0.0) == cubic.degree + 1
    assert np.sum(k == 1.0) == cubic.degree + 1
    assert np.all(np.diff(k) >= 0)


def test_equal_bases_compare_and_hash_equal():
    a, b = make_basis(1.0, 3, 30), make_basis(1.0, 3, 30)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("other", [(2.0, 3, 30), (1.0, 2, 30), (1.0, 3, 31)])
def test_bases_differing_in_a_field_are_unequal(other):
    assert make_basis(1.0, 3, 30) != make_basis(*other)


@pytest.mark.parametrize("bad", [
    dict(domain_end=0.0, degree=3, interval_count=10),
    dict(domain_end=-1.0, degree=3, interval_count=10),
    dict(domain_end=1.0, degree=0, interval_count=10),
    dict(domain_end=1.0, degree=3, interval_count=0),
])
def test_make_basis_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        make_basis(**bad)


def test_partition_of_unity(cubic):
    rng = np.random.default_rng(11)
    pts = np.concatenate([np.linspace(0.0, 1.0, 1000),
                          rng.uniform(0.0, 1.0, 1000)])
    E = eval_basis_many(cubic, pts)
    assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12


def test_endpoint_interpolation(cubic):
    left = eval_basis_many(cubic, [0.0])[0]
    assert left[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(left[1:])) < 1e-14
    right = eval_basis_many(cubic, [1.0])[0]
    assert right[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(right[:-1])) < 1e-12


def test_compact_support(cubic):
    # each function lives on at most degree+1 consecutive subintervals
    mids = (cubic.breakpoints[:-1] + cubic.breakpoints[1:]) / 2.0
    E = eval_basis_many(cubic, mids)
    for l in range(cubic.basis_count):
        nz = np.flatnonzero(np.abs(E[:, l]) > 1e-14)
        assert nz.size <= cubic.degree + 1
        # function l is nonzero only on subintervals l - degree .. l
        assert all(l - cubic.degree <= j <= l for j in nz)


def test_derivative_matches_finite_difference(cubic):
    rng = np.random.default_rng(3)
    b = rng.standard_normal(cubic.basis_count)
    # stay away from knots where the 3rd derivative jumps
    pts = cubic.breakpoints[:-1] + 0.41 * np.diff(cubic.breakpoints)
    h = 1e-6
    for order in (1, 2):
        lo = eval_basis_many(cubic, pts - h, order - 1) @ b
        hi = eval_basis_many(cubic, pts + h, order - 1) @ b
        fd = (hi - lo) / (2.0 * h)
        an = eval_basis_many(cubic, pts, order) @ b
        assert np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(an))) < 1e-6


def test_eval_domain_and_order_validation(cubic):
    with pytest.raises(ValueError):
        eval_basis_many(cubic, [-0.01])
    with pytest.raises(ValueError):
        eval_basis_many(cubic, [1.01])
    with pytest.raises(ValueError):
        eval_basis_many(cubic, [0.5], derivative_order=4)
    with pytest.raises(ValueError):
        eval_basis_many(cubic, [0.5], derivative_order=-1)


def _trapezoid_gram(basis, deriv, n_points=100_001):
    ts = np.linspace(0.0, basis.domain_end, n_points)
    E = eval_basis_many(basis, ts, deriv)
    w = np.full(n_points, ts[1] - ts[0])
    w[0] = w[-1] = 0.5 * (ts[1] - ts[0])
    return (E * w[:, None]).T @ E


def test_gram_block_sum_matches_trapezoid_oracle(cubic):
    total = assemble_blocks(gram_block(cubic, 0))
    # the trapezoid oracle itself carries O(h^2) error, so refine enough
    # for its own bias to drop below the tolerance
    ref = _trapezoid_gram(cubic, 0, n_points=400_001)
    assert np.max(np.abs(total - ref)) / np.max(np.abs(ref)) < 1e-8


def test_gram_block_derivative_sum_matches_trapezoid_oracle(cubic):
    total = assemble_blocks(gram_block(cubic, 2))
    ref = _trapezoid_gram(cubic, 2)
    assert np.max(np.abs(total - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("m", [0, 1, 2])
def test_gram_blocks_symmetric_psd(cubic, m):
    blocks = gram_block(cubic, m)
    for j in (1, 7, 30):
        W = blocks[j - 1]
        assert np.allclose(W, W.T)
        assert np.linalg.eigvalsh(W).min() >= -1e-10


def _dense_interval_gram(basis, j, m, n_nodes=8):
    """Gram of all L functions over 0-based subinterval j, by direct
    Gauss-Legendre quadrature (exact: the integrand has degree <= 10)."""
    a, b = basis.breakpoints[j], basis.breakpoints[j + 1]
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    E = eval_basis_many(basis, a + 0.5 * (b - a) * (x + 1.0), m)
    return (E * (0.5 * (b - a) * w)[:, None]).T @ E


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("M", [1, 2, 30])
def test_gram_block_is_the_window_of_the_interval_gram(degree, M):
    basis = make_basis(1.0, degree, M)
    for m in range(degree):
        blocks = gram_block(basis, m)
        assert blocks.shape == (M, degree + 1, degree + 1)
        for j in range(M):
            dense = _dense_interval_gram(basis, j, m)
            win = slice(j, j + degree + 1)
            np.testing.assert_allclose(blocks[j], dense[win, win],
                                       rtol=0, atol=1e-12 * np.abs(dense).max())
            dense[win, win] = 0.0
            assert not dense.any()


@pytest.mark.parametrize("degree", [1, 3, 5])
@pytest.mark.parametrize("M", [1, 2, 30])
def test_support_windows_list_the_live_functions(degree, M):
    # row j names exactly the functions nonzero inside subinterval j
    basis = make_basis(1.0, degree, M)
    windows = _support_windows(M, degree + 1)
    assert windows.shape == (M, degree + 1)
    assert not windows.flags.writeable
    breaks = basis.breakpoints
    pts = breaks[:-1, None] + np.diff(breaks)[:, None] * [0.1, 0.5, 0.9]
    E = eval_basis_many(basis, pts.ravel()).reshape(M, 3, -1)
    for j in range(M):
        np.testing.assert_array_equal(np.flatnonzero(E[j].any(axis=0)),
                                      windows[j])


@pytest.mark.parametrize("n", [1, 4, 20])
def test_subinterval_gauss_is_exact_on_each_subinterval(n):
    basis = make_basis(2.0, 3, 7)
    nodes, weights = _subinterval_gauss(basis, n)
    assert nodes.shape == weights.shape == (7, n)
    a, b = basis.breakpoints[:-1, None], basis.breakpoints[1:, None]
    assert ((a < nodes) & (nodes < b)).all()
    # n nodes integrate t^(2n-1) exactly
    k = 2 * n - 1
    exact = (b ** (k + 1) - a ** (k + 1))[:, 0] / (k + 1)
    np.testing.assert_allclose((weights * nodes ** k).sum(axis=1), exact,
                               rtol=1e-12)


def test_gram_block_sparsity_pattern():
    # block j scattered alone into L x L is nonzero only on rows and
    # columns j..j+d, where it matches the dense per-interval Gram
    for degree in (1, 3, 5):
        basis = make_basis(1.0, degree, 30)
        L = basis.basis_count
        for m in range(degree):
            blocks = gram_block(basis, m)
            for j in (0, 1, 14, 29):
                single = assemble_blocks(blocks, np.eye(30)[j])
                dense = _dense_interval_gram(basis, j, m)
                np.testing.assert_allclose(single, dense, rtol=0,
                                           atol=1e-12 * np.abs(dense).max())
                outside = np.ones((L, L), dtype=bool)
                outside[j:j + degree + 1, j:j + degree + 1] = False
                assert not single[outside].any()


def test_gram_block_index_validation(cubic):
    for bad in (-1, cubic.degree, cubic.degree + 1):
        with pytest.raises(ValueError):
            gram_block(cubic, bad)
    for ok in range(cubic.degree):
        assert gram_block(cubic, ok).shape == (30, 4, 4)


def test_constant_annihilated_by_derivative_gram(cubic):
    ones = np.ones(cubic.basis_count)
    V2 = assemble_blocks(gram_block(cubic, 2))
    assert abs(ones @ V2 @ ones) < 1e-10


def test_polynomials_below_m_annihilated(cubic):
    # least-squares projection finds the exact spline representation; the
    # quadratic form is compared against its roundoff scale because V has
    # entries of order M^3
    ts = np.linspace(0.0, 1.0, 2001)
    E = eval_basis_many(cubic, ts)
    V = assemble_blocks(gram_block(cubic, 2))
    for target in (np.ones_like(ts), ts):
        b = np.linalg.lstsq(E, target, rcond=None)[0]
        scale = np.abs(b) @ np.abs(V) @ np.abs(b)
        assert abs(b @ V @ b) < 1e-12 * scale
