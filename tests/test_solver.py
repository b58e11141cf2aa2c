"""Solver oracles: likelihood, LQA weights, Newton steps, and full fits."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from sflr import solver
from sflr.basis import gram_block, make_basis
from sflr.design import FunctionalDataset, assemble_blocks, build_design
from sflr.model import SflrModel, beta_hat
from sflr.simulate import (ScenarioSpec, beta_one_null, default_tuning_grid,
                           generate_predictors, generate_responses)
from sflr.solver import (PROB_CLAMP, FitResult, SolverConfig, _Objective,
                         _likelihood_hessian, _log_likelihood, _newton_solve,
                         clamped_probs, fit, fit_initial, interval_norms)


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))


# out-of-place forms of the solver's in-place sigmoid, clamp and
# log-likelihood, which must give the same bits
def _tanh_sigmoid(eta):
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def _clamped_oracle(eta):
    return np.clip(_tanh_sigmoid(eta), PROB_CLAMP, 1.0 - PROB_CLAMP)


def _log_likelihood_oracle(p, y):
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def _log_likelihood_at(b, alpha, U, y):
    return _log_likelihood(clamped_probs(alpha + U @ b), y)


def _newton_update(theta, U_aug, y, P):
    """theta plus the solver's Newton step from it."""
    p = clamped_probs(U_aug @ theta)
    UDU = _likelihood_hessian(p, np.ascontiguousarray(U_aug.T))
    return theta + _newton_solve(theta, p, UDU, U_aug, y, P)


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


def _toy_problem(seed=0, n=200, M=2, degree=3, m=2):
    rng = np.random.default_rng(seed)
    basis = make_basis(1.0, degree, M)
    ts = np.linspace(0, 1, 101)
    X = rng.standard_normal((n, ts.size))
    data = FunctionalDataset(ts, X)
    design = build_design(data, basis, m=m)
    eta = design.U @ rng.standard_normal(basis.basis_count)
    y = (rng.random(n) < _sigmoid(2.0 * eta)).astype(float)
    return basis, design, y


class TestLogLikelihood:
    def test_null_model(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        U = np.zeros((5, 3))
        ll = _log_likelihood_at(np.zeros(3), 0.0, U, y)
        assert ll == pytest.approx(5 * math.log(0.5), abs=1e-12)

    def test_clamping_by_hand(self):
        # one sample with y=1 and a huge linear predictor: probability is
        # clamped at 1 - delta before the log
        U = np.array([[40.0]])
        ll = _log_likelihood_at(np.array([1.0]), 0.0, U, np.array([1.0]))
        assert ll == pytest.approx(math.log(1.0 - 1e-5), abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        U = rng.standard_normal((10, 4))
        b = rng.standard_normal(4)
        y = rng.integers(0, 2, 10).astype(float)
        alpha = 0.3
        p = _sigmoid(alpha + U @ b)
        ref = np.sum(y * np.log(p) + (1 - y) * np.log(1 - p))
        ll = _log_likelihood_at(b, alpha, U, y)
        assert ll == pytest.approx(ref, abs=1e-10)


class TestInPlaceFormulas:
    def test_bits_match_out_of_place_forms_and_inputs_stay(self):
        rng = np.random.default_rng(9)
        eta = rng.standard_normal(1000) * 20.0
        y = rng.integers(0, 2, eta.size).astype(float)
        eta_bytes, y_bytes = eta.tobytes(), y.tobytes()

        assert solver._sigmoid(eta).tobytes() == _tanh_sigmoid(eta).tobytes()
        p = clamped_probs(eta)
        expected = _clamped_oracle(eta)
        assert p.min() == PROB_CLAMP and p.max() == 1.0 - PROB_CLAMP
        assert p.tobytes() == expected.tobytes()
        p_bytes = p.tobytes()
        ll = _log_likelihood(p, y)
        assert type(ll) is float
        assert ll == _log_likelihood_oracle(expected, y)
        # a sum this size hides last-bit differences in its small terms
        for i in range(p.size):
            assert _log_likelihood(p[i:i + 1], y[i:i + 1]) == \
                _log_likelihood_oracle(expected[i:i + 1], y[i:i + 1])
        assert (eta.tobytes(), y.tobytes(), p.tobytes()) == \
            (eta_bytes, y_bytes, p_bytes)

    def test_zero_d_input(self):
        assert clamped_probs(40.0) == 1.0 - PROB_CLAMP
        assert clamped_probs(np.float64(-40.0)) == PROB_CLAMP
        assert solver._sigmoid(0.0) == 0.5


class TestLqaWeightMatrix:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        basis = make_basis(1.0, 3, 10)
        design = build_design(
            FunctionalDataset(np.linspace(0, 1, 51), np.ones((1, 51))),
            basis, m=2)
        return basis, design

    @staticmethod
    def weights(b, setup, lam):
        """W~*, as the Newton penalty at gamma = 0, without its zero
        intercept row and column."""
        basis, design = setup
        objective = _Objective(design.U, [1.0], design.V, 0.0, lam, basis,
                               design.W_blocks)
        Wt = objective.newton_penalty(np.concatenate([[0.0], b]))
        assert np.all(Wt[0] == 0.0) and np.all(Wt[:, 0] == 0.0)
        return Wt[1:, 1:]

    def test_zero_lambda_gives_zero_matrix(self, setup):
        W = self.weights(np.ones(13), setup, 0.0)
        assert np.all(W == 0.0)

    def test_constant_beta_hand_algebra(self, setup):
        # beta == 1 gives every subinterval norm sqrt(T/M), so the scaled
        # matrix collapses to (lambda/2) * Gram
        lam = 3.0
        Wt = self.weights(np.ones(13), setup, lam)
        gram = assemble_blocks(setup[1].W_blocks)
        np.testing.assert_allclose(Wt, 0.5 * lam * gram, rtol=1e-12)

    def test_zero_coefficients_floor_active(self, setup):
        Wt = self.weights(np.zeros(13), setup, 1.0)
        assert np.all(np.isfinite(Wt))
        assert np.max(Wt) > 1e5  # large but finite

    def test_symmetric_psd(self, setup):
        rng = np.random.default_rng(2)
        Wt = self.weights(rng.standard_normal(13), setup, 2.0)
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
        got = _newton_update(theta0, X, y, zero)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(80)
        y = (rng.random(80) < _sigmoid(x)).astype(float)
        X = np.column_stack([np.ones(80), x])
        mle = irls_logistic(X, y)
        zero = np.zeros((2, 2))
        step = _newton_update(mle, X, y, zero)
        np.testing.assert_allclose(step, mle, atol=1e-10)

    def test_gradient_matches_finite_difference(self):
        # central differences on the quadratic-approximation objective
        # against the gradient the solver's Newton step implies: the step
        # solves H step = -grad, so grad = -(H @ step)
        rng = np.random.default_rng(6)
        n, L = 60, 5
        U_aug = np.column_stack([np.ones(n), rng.standard_normal((n, L - 1))])
        U_augT = np.ascontiguousarray(U_aug.T)
        y = rng.integers(0, 2, n).astype(float)
        V = rng.standard_normal((L, L))
        V = V.T @ V * 0.1
        Wt = rng.standard_normal((L, L))
        Wt = Wt.T @ Wt * 0.05
        P = V + Wt

        def J(theta):
            eta = U_aug @ theta
            ll = np.sum(y * eta - np.logaddexp(0.0, eta))
            return -ll + 0.5 * theta @ V @ theta + 0.5 * theta @ Wt @ theta

        for _ in range(10):
            theta = rng.standard_normal(L) * 0.5
            p = clamped_probs(U_aug @ theta)
            UDU = _likelihood_hessian(p, U_augT)
            H = UDU + P
            grad = -(H @ _newton_solve(theta, p, UDU, U_aug, y, P))
            h = 1e-6
            fd = np.array([
                (J(theta + h * e) - J(theta - h * e)) / (2 * h)
                for e in np.eye(L)])
            assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    @pytest.mark.parametrize("n, zero_column", [(40, True), (12, False)])
    def test_singular_system_takes_the_minimum_norm_step(self, n,
                                                         zero_column):
        # with no penalty H = U'DU is singular: exactly, when U_aug has an
        # all-zero column, or up to rounding, when it has more columns
        # than rows; there a direct solve would return a finite step with
        # an arbitrary null-space part
        rng = np.random.default_rng(3)
        L = 20
        U_aug = np.column_stack([np.ones(n),
                                 rng.standard_normal((n, L - 1))])
        if zero_column:
            U_aug[:, -1] = 0.0
        y = rng.integers(0, 2, n).astype(float)
        zero = np.zeros((L, L))
        theta = rng.standard_normal(L) * 0.1
        p = clamped_probs(U_aug @ theta)
        # the likelihood Hessian as the solver builds it from the
        # transposed design: SS' summed over 256-column blocks of
        # S = U_aug' sqrt(p(1-p)) (one block here)
        S = np.ascontiguousarray(U_aug.T) * np.sqrt(p * (1.0 - p))
        H = S @ S.T
        rhs = U_aug.T @ (y - p)
        with pytest.warns(RuntimeWarning,
                          match="^ill-conditioned Newton system"):
            got = _newton_update(theta, U_aug, y, zero)
        np.testing.assert_array_equal(
            got, theta + np.linalg.lstsq(H, rhs, rcond=None)[0])

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_blocked_hessian_is_symmetric_and_matches_dense_form(self, n):
        rng = np.random.default_rng(n)
        L = 34
        U_aug = np.column_stack([np.ones(n),
                                 rng.standard_normal((n, L - 1))])
        p = clamped_probs(rng.standard_normal(n) * 3.0)
        H = _likelihood_hessian(p, np.ascontiguousarray(U_aug.T))
        np.testing.assert_array_equal(H, H.T)
        dense = U_aug.T @ ((p * (1.0 - p))[:, None] * U_aug)
        assert np.max(np.abs(H - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestObjective:
    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_in_place_evaluation_matches_out_of_place_form(self, lam):
        # evaluate's in-place passes give the bits of the out-of-place
        # composition on the same linear predictor
        basis, design, y = _toy_problem(seed=5, n=300, M=8)
        objective = _Objective(design.U, y, design.V, 1e-3, lam, basis,
                               design.W_blocks)
        theta = np.random.default_rng(5).standard_normal(
            basis.basis_count + 1) * 100.0
        theta[0] = 0.0
        value, p = objective.evaluate(theta)

        expected_p = _clamped_oracle(objective.U_aug @ theta)
        # the draw reaches both clamp bounds
        assert expected_p.min() == PROB_CLAMP
        assert expected_p.max() == 1.0 - PROB_CLAMP
        expected = (-_log_likelihood_oracle(expected_p, y)
                    + 0.5 * theta @ objective.V_star @ theta)
        if lam > 0.0:
            w, E = objective._l1_w, objective._l1_E
            expected += 0.5 * lam * float(w @ np.abs(E @ theta[1:]))
        np.testing.assert_array_equal(p, expected_p)
        assert type(value) is type(expected)
        assert value.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 1e-3])
    def test_newton_penalty_matches_dense_loop(self, gamma):
        # P = V* + (lambda/2) sqrt(T/M) sum_j W_j / max(||beta_[j]||, 1e-8),
        # block j at rows and columns j+1..j+d+1 of the intercept-augmented
        # matrix; at lambda = 0 it is V*; the Newton solve only reads it and
        # the likelihood Hessian
        basis, design, y = _toy_problem(seed=9, n=100, M=8)
        T, M = basis.domain_end, basis.interior_interval_count
        d, L = basis.degree, basis.basis_count
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(L + 1)
        lam = 5.0
        V_star = np.zeros((L + 1, L + 1))
        V_star[1:, 1:] = gamma * design.V
        expected = V_star.copy()
        for j, W in enumerate(design.W_blocks):
            window = theta[j + 1:j + d + 2]
            norm = max(math.sqrt(window @ W @ window), 1e-8)
            expected[j + 1:j + d + 2, j + 1:j + d + 2] += (
                0.5 * lam * math.sqrt(T / M) * W / norm)
        objective = _Objective(design.U, y, design.V, gamma, lam, basis,
                               design.W_blocks)
        P = objective.newton_penalty(theta)
        assert np.max(np.abs(P - expected)) <= 1e-12 * np.max(np.abs(expected))

        objective = _Objective(design.U, y, design.V, gamma)
        P = objective.newton_penalty(theta)
        np.testing.assert_array_equal(P, V_star)
        p = objective.evaluate(theta)[1]
        UDU = _likelihood_hessian(p, objective.U_augT)
        UDU_bytes = UDU.tobytes()
        _newton_solve(theta, p, UDU, objective.U_aug, y, P)
        np.testing.assert_array_equal(P, V_star)
        assert UDU.tobytes() == UDU_bytes


class TestFitInitial:
    def test_symmetric_problem_stays_at_zero(self):
        y = np.array([0.0, 1.0] * 10)
        U = np.zeros((20, 4))
        V = np.eye(4) * 0.1
        theta, converged, _ = fit_initial(U, y, V, SolverConfig())
        assert converged
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)

    def test_matches_generic_optimizer(self):
        rng = np.random.default_rng(8)
        n, L = 40, 8
        U = rng.standard_normal((n, L)) * 0.5
        y = rng.integers(0, 2, n).astype(float)
        A = rng.standard_normal((L, L))
        V = A.T @ A * 0.2
        cfg = SolverConfig(gamma=1.0, lam=0.0, tolerance=1e-10,
                           max_iterations=200)
        theta, converged, _ = fit_initial(U, y, V, cfg)
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

    def test_unpenalized_fit_with_fewer_curves_than_coefficients(self):
        # U has more columns than rows, so H = U'DU is singular at every
        # step; minimum-norm steps from 0 keep (alpha, b) in U_aug's row
        # space, where arbitrary null-space parts would pile up unseen
        basis, design, y = _toy_problem(seed=4, n=12, M=30)
        cfg = SolverConfig(lam=0.0, gamma=0.0, max_iterations=20)
        with pytest.warns(RuntimeWarning,
                          match="^ill-conditioned Newton system"):
            res = fit(design.U, y, basis, design, cfg)
        U_aug = np.column_stack([np.ones(y.size), design.U])
        theta = np.concatenate([[res.alpha], res.b])
        null_basis = np.linalg.svd(U_aug)[2][y.size:]
        assert np.linalg.norm(null_basis @ theta) < \
            1e-6 * np.linalg.norm(theta)

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
                    PROB_CLAMP, 1.0 - PROB_CLAMP)
        loglik = np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        ts = np.linspace(0.0, basis.domain_end, 200001)
        model = SflrModel(basis=basis, fit=res, training_grid=ts)
        l1 = np.trapezoid(np.abs(beta_hat(model, ts)), ts)
        ref = (-loglik + 0.5 * cfg.gamma * (res.b @ design.V @ res.b)
               + 0.5 * cfg.lam * l1)
        assert res.final_objective == pytest.approx(ref, rel=1e-6)

    def test_null_mask_consistency(self):
        # flagged subintervals carry exactly-zero coefficients throughout,
        # and the mask is a fixpoint of the null rule on the returned b
        for degree, m, M, lam in ((2, 1, 10, 10.0), (2, 1, 17, 10.0),
                                  (3, 2, 6, 8.0), (3, 2, 10, 4.0),
                                  (3, 2, 17, 10.0), (5, 2, 4, 10.0),
                                  (5, 2, 17, 5.0)):
            basis, design, y = _toy_problem(seed=3, n=200, M=M,
                                            degree=degree, m=m)
            res = fit(design.U, y, basis, design,
                      SolverConfig(lam=lam, gamma=1e-4, m=m))
            assert 0 < res.null_mask.sum() < M  # some flagged, some not
            for l in range(basis.basis_count):
                # coefficient l's support is subintervals l-degree..l
                if res.null_mask[max(l - degree, 0):l + 1].any():
                    assert res.b[l] == 0.0
            norms = [math.sqrt(max(res.b[j:j + degree + 1] @ W
                                   @ res.b[j:j + degree + 1], 0.0))
                     for j, W in enumerate(design.W_blocks)]
            # scaled subinterval norms below 1e-4 are null
            np.testing.assert_array_equal(
                np.array(norms) / math.sqrt(1.0 / M) < 1e-4, res.null_mask)

    def test_interval_norms_match_definition(self):
        rng = np.random.default_rng(0)
        for M, d in ((6, 3), (1, 3), (1, 1), (1, 5), (6, 1), (6, 5)):
            W_blocks = gram_block(make_basis(1.0, d, M), 0)
            b = rng.standard_normal(M + d)
            norms = interval_norms(b, W_blocks)
            ref = [math.sqrt(max(b[j:j + d + 1] @ W @ b[j:j + d + 1], 0.0))
                   for j, W in enumerate(W_blocks)]
            assert norms.shape == (M,)
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
        p = clamped_probs(np.array([-100.0, 0.0, 100.0]))
        assert p[0] == pytest.approx(1e-5)
        assert p[1] == pytest.approx(0.5)
        assert p[2] == pytest.approx(1.0 - 1e-5)


def _rebuilding_descend(theta, objective, config, trace=None):
    """The solver's descent with U'DU rebuilt at every iterate."""
    U_aug, U_augT, y = objective.U_aug, objective.U_augT, objective.y
    obj, p = objective.evaluate(theta)
    if trace is not None:
        trace.append(obj)
    for it in range(1, config.max_iterations + 1):
        step = _newton_solve(theta, p, _likelihood_hessian(p, U_augT), U_aug,
                             y, objective.newton_penalty(theta))
        for k in range(solver._STEP_HALVING_MAX + 1):
            cand = theta + 0.5 ** k * step
            obj_c, p_c = objective.evaluate(cand)
            if obj_c <= obj + solver._DESCENT_SLACK:
                break
        else:
            return theta, True, it
        rel = solver._relative_step(cand, theta)
        theta, obj, p = cand, obj_c, p_c
        if trace is not None:
            trace.append(obj)
        if rel < config.tolerance:
            return theta, True, it
    return theta, False, config.max_iterations


class TestHessianReuse:
    """The descent keeps U'DU until the weights p(1-p) drift; checked on
    seeded one_null fits (N=1000, M=30) over the default 3x2 BIC grid."""

    @pytest.fixture(scope="class")
    @staticmethod
    def problem():
        seed = 20260823
        X = generate_predictors(ScenarioSpec("one_null", n_train=1000,
                                             seed=seed))
        y = generate_responses(X, beta_one_null, 0.0, seed + 1)[0]
        basis = make_basis(1.0, 3, 30)
        design = build_design(X, basis, m=2)
        grid = default_tuning_grid("one_null", 1000)
        configs = [SolverConfig(lam=lam, gamma=gamma)
                   for gamma in grid.gammas for lam in grid.lambdas]
        return basis, design, y.astype(float), configs

    @staticmethod
    def fits(problem):
        basis, design, y, configs = problem
        return [fit(design.U, y, basis, design, cfg) for cfg in configs]

    def test_builds_fewer_hessians_than_newton_steps(self, problem,
                                                     monkeypatch):
        calls = {"hessian": 0, "solve": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(solver, "_likelihood_hessian",
                            counted("hessian", _likelihood_hessian))
        monkeypatch.setattr(solver, "_newton_solve",
                            counted("solve", _newton_solve))
        results = self.fits(problem)
        # each fit also builds one fresh Hessian at its final coefficients
        builds = calls["hessian"] - len(results)
        steps = calls["solve"]
        # 77 builds for 293 Newton steps, both descents of each fit counted
        assert 0 < builds < steps / 2

    def test_matches_a_descent_that_rebuilds_every_iterate(self, problem,
                                                           monkeypatch):
        reused = self.fits(problem)
        monkeypatch.setattr(solver, "_descend", _rebuilding_descend)
        rebuilt = self.fits(problem)
        for got, ref in zip(reused, rebuilt):
            np.testing.assert_array_equal(got.null_mask, ref.null_mask)
            assert got.converged == ref.converged
            # measured: at most 1.2e-5 for b and 1.5e-6 for alpha here; a
            # descent that never rebuilds moves them by 1.8e-3 and 8.7e-5
            assert np.max(np.abs(got.b - ref.b)) <= \
                5e-5 * np.max(np.abs(ref.b))
            assert abs(got.alpha - ref.alpha) <= 5e-5 * abs(ref.alpha)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)


def test_fit_result_defaults():
    res = FitResult(b=np.zeros(3), alpha=0.0, null_mask=np.zeros(2, bool))
    assert not res.converged and math.isnan(res.final_objective)
