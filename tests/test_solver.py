"""Solver oracles: likelihood, LQA weights, Newton steps, and full fits."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from sflr.basis import make_basis
from sflr.design import FunctionalDataset, build_design
from sflr.model import SflrModel, beta_hat
from sflr.solver import (FitResult, SolverConfig, clamped_probs, fit,
                         fit_initial, interval_norms, log_likelihood,
                         lqa_weight_matrix, newton_step)


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))


def irls_logistic(X, y, tol=1e-12, max_iter=200):
    """Textbook IRLS for unpenalized logistic regression (oracle)."""
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        p = _sigmoid(X @ beta)
        d = p * (1.0 - p)
        H = X.T @ (d[:, None] * X)
        g = X.T @ (y - p)
        step = np.linalg.solve(H, g)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta


def _toy_problem(seed=0, n=200, M=2, degree=3):
    rng = np.random.default_rng(seed)
    basis = make_basis(1.0, degree, M)
    ts = np.linspace(0, 1, 101)
    X = rng.standard_normal((n, ts.size))
    data = FunctionalDataset(ts, X)
    design = build_design(data, basis, m=2)
    eta = design.U @ rng.standard_normal(basis.basis_count)
    y = (rng.random(n) < _sigmoid(2.0 * eta)).astype(float)
    return basis, design, y


class TestLogLikelihood:
    def test_null_model(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        U = np.zeros((5, 3))
        ll = log_likelihood(np.zeros(3), 0.0, U, y, 1e-5)
        assert ll == pytest.approx(5 * math.log(0.5), abs=1e-12)

    def test_clamping_by_hand(self):
        # one sample with y=1 and a huge linear predictor: probability is
        # clamped at 1 - delta before the log
        U = np.array([[40.0]])
        ll = log_likelihood(np.array([1.0]), 0.0, U, np.array([1.0]), 1e-5)
        assert ll == pytest.approx(math.log(1.0 - 1e-5), abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        U = rng.standard_normal((10, 4))
        b = rng.standard_normal(4)
        y = rng.integers(0, 2, 10).astype(float)
        alpha = 0.3
        p = _sigmoid(alpha + U @ b)
        ref = np.sum(y * np.log(p) + (1 - y) * np.log(1 - p))
        ll = log_likelihood(b, alpha, U, y, 1e-5)
        assert ll == pytest.approx(ref, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            log_likelihood(np.zeros(3), 0.0, np.zeros((5, 4)), np.ones(5), 1e-5)


class TestLqaWeightMatrix:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        basis = make_basis(1.0, 3, 10)
        design = build_design(
            FunctionalDataset(np.linspace(0, 1, 51), np.ones((1, 51))),
            basis, m=2)
        return basis, design.W_blocks

    def test_zero_lambda_gives_zero_matrix(self, setup):
        _, W_blocks = setup
        W = lqa_weight_matrix(np.ones(13), W_blocks, 0.0, 1.0, 10, 1e-8)
        assert np.all(W == 0.0)

    def test_constant_beta_hand_algebra(self, setup):
        # beta == 1 gives every subinterval norm sqrt(T/M), so the scaled
        # matrix collapses to (lambda/2) * Gram
        _, W_blocks = setup
        lam = 3.0
        Wt = lqa_weight_matrix(np.ones(13), W_blocks, lam, 1.0, 10, 1e-8)
        gram = sum(W_blocks)
        np.testing.assert_allclose(Wt, 0.5 * lam * gram, rtol=1e-12)

    def test_zero_coefficients_floor_active(self, setup):
        _, W_blocks = setup
        Wt = lqa_weight_matrix(np.zeros(13), W_blocks, 1.0, 1.0, 10, 1e-8)
        assert np.all(np.isfinite(Wt))
        assert np.max(Wt) > 1e5  # large but finite

    def test_symmetric_psd(self, setup):
        _, W_blocks = setup
        rng = np.random.default_rng(2)
        Wt = lqa_weight_matrix(rng.standard_normal(13), W_blocks, 2.0,
                               1.0, 10, 1e-8)
        assert np.allclose(Wt, Wt.T)
        assert np.linalg.eigvalsh(Wt).min() >= -1e-10


class TestNewtonStep:
    def test_matches_irls_on_scalar_feature(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50)
        y = (rng.random(50) < _sigmoid(1.5 * x)).astype(float)
        X = np.column_stack([np.ones(50), x])
        zero = np.zeros((2, 2))
        theta0 = np.array([0.1, -0.2])
        # hand-coded single IRLS step
        p = _sigmoid(X @ theta0)
        d = p * (1 - p)
        ref = theta0 + np.linalg.solve(X.T @ (d[:, None] * X), X.T @ (y - p))
        got = newton_step(theta0, X, y, zero, zero, 1e-12)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(80)
        y = (rng.random(80) < _sigmoid(x)).astype(float)
        X = np.column_stack([np.ones(80), x])
        mle = irls_logistic(X, y)
        zero = np.zeros((2, 2))
        step = newton_step(mle, X, y, zero, zero, 1e-12)
        np.testing.assert_allclose(step, mle, atol=1e-10)

    def test_gradient_matches_finite_difference(self):
        # central differences on the quadratic-approximation objective
        rng = np.random.default_rng(6)
        n, L = 60, 5
        U_aug = np.column_stack([np.ones(n), rng.standard_normal((n, L - 1))])
        y = rng.integers(0, 2, n).astype(float)
        V = rng.standard_normal((L, L))
        V = V.T @ V * 0.1
        Wt = rng.standard_normal((L, L))
        Wt = Wt.T @ Wt * 0.05

        def J(theta):
            eta = U_aug @ theta
            ll = np.sum(y * eta - np.logaddexp(0.0, eta))
            return -ll + 0.5 * theta @ V @ theta + 0.5 * theta @ Wt @ theta

        for _ in range(10):
            theta = rng.standard_normal(L) * 0.5
            p = _sigmoid(U_aug @ theta)
            grad = -U_aug.T @ (y - p) + V @ theta + Wt @ theta
            h = 1e-6
            fd = np.array([
                (J(theta + h * e) - J(theta - h * e)) / (2 * h)
                for e in np.eye(L)])
            assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            newton_step(np.zeros(3), np.zeros((5, 4)), np.ones(5),
                        np.zeros((4, 4)), np.zeros((4, 4)), 1e-5)


class TestFitInitial:
    def test_symmetric_problem_stays_at_zero(self):
        y = np.array([0.0, 1.0] * 10)
        U = np.zeros((20, 4))
        V_star = np.eye(5) * 0.1
        V_star[0, 0] = 0.0
        theta, converged, _ = fit_initial(U, y, V_star, SolverConfig())
        assert converged
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)

    def test_matches_generic_optimizer(self):
        rng = np.random.default_rng(8)
        n, L = 40, 8
        U = rng.standard_normal((n, L)) * 0.5
        y = rng.integers(0, 2, n).astype(float)
        A = rng.standard_normal((L, L))
        V = A.T @ A * 0.2
        V_star = np.zeros((L + 1, L + 1))
        V_star[1:, 1:] = V
        cfg = SolverConfig(gamma=1.0, lam=0.0, tolerance=1e-10,
                           max_iterations=200)
        theta, converged, _ = fit_initial(U, y, V_star, cfg)
        assert converged

        def objective(th):
            eta = th[0] + U @ th[1:]
            ll = np.sum(y * eta - np.logaddexp(0.0, eta))
            return -ll + 0.5 * th[1:] @ V @ th[1:]

        ref = minimize(objective, np.zeros(L + 1), method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 500}).x
        assert np.max(np.abs(theta - ref)) < 1e-5


class TestFit:
    def test_unpenalized_matches_irls_oracle(self):
        basis, design, y = _toy_problem(seed=0, n=200, M=2)
        cfg = SolverConfig(lam=0.0, gamma=0.0, tolerance=1e-10,
                           max_iterations=200)
        res = fit(design.U, y, basis, design, cfg)
        assert res.converged
        X = np.column_stack([np.ones(y.size), design.U])
        ref = irls_logistic(X, y)
        assert abs(res.alpha - ref[0]) < 1e-6
        assert np.max(np.abs(res.b - ref[1:])) < 1e-6

    def test_huge_lambda_gives_intercept_only_model(self):
        basis, design, y = _toy_problem(seed=1, n=150, M=5)
        cfg = SolverConfig(lam=1e6, gamma=1e-4)
        res = fit(design.U, y, basis, design, cfg)
        assert np.all(res.b == 0.0)
        assert np.all(res.null_mask)
        pbar = y.mean()
        assert res.alpha == pytest.approx(math.log(pbar / (1 - pbar)),
                                          abs=1e-4)

    def test_objective_trace_non_increasing(self):
        basis, design, y = _toy_problem(seed=2, n=150, M=8)
        cfg = SolverConfig(lam=2.0, gamma=1e-4)
        res = fit(design.U, y, basis, design, cfg)
        trace = np.asarray(res.objective_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-12)

    def test_final_objective_is_the_minimised_objective(self):
        # -loglik + (gamma/2) b'Vb + (lambda/2) int |beta_hat|, rebuilt from
        # the clamped likelihood and a fine trapezoid rule on beta_hat; the
        # solver's 20-node Gauss-Legendre rule misses the kink of |beta_hat|
        # where beta_hat changes sign by ~3e-5 of the integral here
        basis, design, y = _toy_problem(seed=2, n=150, M=8)
        cfg = SolverConfig(lam=2.0, gamma=1e-4)
        res = fit(design.U, y, basis, design, cfg)
        assert np.any(res.b != 0.0)
        p = np.clip(_sigmoid(res.alpha + design.U @ res.b),
                    cfg.prob_clamp_delta, 1.0 - cfg.prob_clamp_delta)
        loglik = np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        ts = np.linspace(0.0, basis.domain_end, 200001)
        model = SflrModel(basis=basis, fit=res, training_grid=ts)
        l1 = np.trapezoid(np.abs(beta_hat(model, ts)), ts)
        ref = (-loglik + 0.5 * cfg.gamma * (res.b @ design.V @ res.b)
               + 0.5 * cfg.lam * l1)
        assert res.final_objective == pytest.approx(ref, rel=1e-6)

    def test_null_mask_consistency(self):
        # flagged subintervals carry exactly-zero coefficients throughout
        basis, design, y = _toy_problem(seed=3, n=200, M=10)
        cfg = SolverConfig(lam=50.0, gamma=1e-4)
        res = fit(design.U, y, basis, design, cfg)
        for j in np.flatnonzero(res.null_mask):
            for l in range(basis.basis_count):
                if j in basis.support_intervals(l):
                    assert res.b[l] == 0.0

    def test_interval_norms_match_definition(self):
        basis, design, _ = _toy_problem(seed=4, n=20, M=6)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(basis.basis_count)
        norms = interval_norms(b, design.W_blocks)
        ref = [math.sqrt(max(b @ W @ b, 0.0)) for W in design.W_blocks]
        np.testing.assert_allclose(norms, ref, atol=1e-14)

    def test_sparsity_weakly_monotone_in_lambda(self):
        basis, design, y = _toy_problem(seed=5, n=300, M=10)
        l1_norms = []
        for lam in (0.5, 2.0, 8.0, 32.0):
            cfg = SolverConfig(lam=lam, gamma=1e-4)
            res = fit(design.U, y, basis, design, cfg)
            ts = np.linspace(0, 1, 5001)
            from sflr.basis import eval_basis_many
            beta = eval_basis_many(basis, ts) @ res.b
            l1_norms.append(np.trapezoid(np.abs(beta), ts))
        for a, b_ in zip(l1_norms, l1_norms[1:]):
            assert b_ <= a * 1.05

    def test_degenerate_labels_flagged(self):
        basis, design, y = _toy_problem(seed=6, n=50, M=4)
        with pytest.warns(RuntimeWarning, match="identical"):
            res = fit(design.U, np.ones_like(y), basis, design,
                      SolverConfig(lam=1.0, gamma=1e-3, max_iterations=5))
        assert not res.converged

    def test_clamped_probs_bounds(self):
        p = clamped_probs(np.array([-100.0, 0.0, 100.0]), 1e-5)
        assert p[0] == pytest.approx(1e-5)
        assert p[1] == pytest.approx(0.5)
        assert p[2] == pytest.approx(1.0 - 1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(prob_clamp_delta=0.7)


def test_fit_result_defaults():
    res = FitResult(b=np.zeros(3), alpha=0.0, null_mask=np.zeros(2, bool))
    assert not res.converged and math.isnan(res.final_objective)
