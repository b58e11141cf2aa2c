"""Acceptance gate: end-to-end behavioural targets for the estimator.

Every stochastic experiment below uses the frozen base seed 20260823 and is
bit-reproducible, so the tolerances are checked against deterministic
numbers. The two reference-window tests keep the paper's tolerances but
centre them on the Bayes rule's median rates over the same test sets
(``bayes_*`` in each replicate row), not on the paper's absolute rates. The
paper's rates (median MCR 0.236 clean, 0.240 and 0.238 at SNR 1) come from
a data-generating process the bundled scenarios do not match: on the
bundled one_null generator even the Bayes rule, which classifies with the
true model, has a median MCR of about 0.336 on clean curves and 0.355 to
0.363 on curves at SNR 1. This rests on the bundled generator standing in
for the paper's, which the repository cannot confirm from the abstract
alone; both tests report their gap to the paper's rates as well.
"""
import math
import time

import numpy as np
import pytest

from sflr.basis import eval_basis_many, gram_block, make_basis
from sflr.design import FunctionalDataset, assemble_blocks, build_design
from sflr.simulate import (ScenarioSpec, beta_one_null, default_tuning_grid,
                           generate_predictors, generate_responses,
                           replicate_experiment)
from sflr.solver import (SolverConfig, _likelihood_hessian, _newton_solve,
                         _Objective, fit)

BASE_SEED = 20260823

_CONFIG = SolverConfig(max_iterations=300)


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


def _simulated_problem(seed, n, M, degree=3):
    spec = ScenarioSpec("one_null", n_train=n, seed=seed)
    X = generate_predictors(spec)
    y, _ = generate_responses(X, beta_one_null, 0.0, seed + 1)
    basis = make_basis(1.0, degree, M)
    design = build_design(X, basis, m=2)
    return basis, design, y.astype(float)


# --- shared replication experiments (module-scoped: run once) --------------

@pytest.fixture(scope="module")
def one_null_1000():
    spec = ScenarioSpec("one_null", n_train=1000, n_test=1000, seed=BASE_SEED)
    grid = default_tuning_grid("one_null", 1000)
    res = replicate_experiment(spec, grid, 25, _CONFIG)
    assert res.n_failed == 0
    return res


@pytest.fixture(scope="module")
def three_null_trend():
    out = {}
    for n in (150, 450, 1000):
        spec = ScenarioSpec("three_null", n_train=n, n_test=1000,
                            seed=BASE_SEED)
        grid = default_tuning_grid("three_null", n)
        out[n] = replicate_experiment(spec, grid, 15, _CONFIG)
        assert out[n].n_failed == 0
    return out


@pytest.fixture(scope="module")
def noise_pairs():
    out = {}
    for n in (150, 450, 1000):
        for snr in (None, 1.0):
            spec = ScenarioSpec("one_null", n_train=n, n_test=1000,
                                snr=snr, seed=BASE_SEED)
            grid = default_tuning_grid("one_null", n)
            out[n, snr] = replicate_experiment(spec, grid, 15, _CONFIG)
            assert out[n, snr].n_failed == 0
    return out


# --- 1. oracle equivalence --------------------------------------------------

def test_unpenalized_fit_matches_irls_oracle():
    start = time.perf_counter()
    basis, design, y = _simulated_problem(BASE_SEED, n=200, M=2)
    assert basis.basis_count == 5
    cfg = SolverConfig(lam=0.0, gamma=0.0, tolerance=1e-10,
                       max_iterations=200)
    res = fit(design.U, y, basis, design, cfg)
    assert res.converged
    ref = irls_logistic(np.column_stack([np.ones(y.size), design.U]), y)
    assert abs(res.alpha - ref[0]) < 1e-6
    assert np.max(np.abs(res.b - ref[1:])) < 1e-6
    assert time.perf_counter() - start < 1.0


# --- 2. derivative correctness ----------------------------------------------

def test_gradient_and_hessian_match_finite_differences():
    # the solver's own derivatives: the Hessian its Newton solve builds,
    # and the gradient that solve uses, recovered as -H * step, against
    # central differences of the objective it evaluates
    start = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    basis, design, y = _simulated_problem(BASE_SEED + 1, n=150, M=8)
    L = basis.basis_count
    # frozen quadratic-approximation penalty around a reference coefficient,
    # folded with the roughness term into the objective's quadratic part
    b_ref = rng.standard_normal(L)
    Wt = _Objective(design.U, y, design.V, 0.0, 2.0, basis,
                    design.W_blocks).lqa_matrix(b_ref)
    objective = _Objective(design.U, y, 1e-3 * design.V + Wt[1:, 1:], 1.0)
    U_aug, U_augT, P = objective.U_aug, objective.U_augT, objective.V_star

    def value(theta):
        return objective.evaluate(theta)[0]

    def hess_and_grad(theta):
        p = objective.evaluate(theta)[1]
        UDU = _likelihood_hessian(p, U_augT)
        H = UDU + P
        return H, -(H @ _newton_solve(theta, p, UDU, U_aug, y, P))

    h = 1e-6
    for _ in range(50):
        theta = 0.1 * rng.standard_normal(L + 1)
        H, g = hess_and_grad(theta)
        fd_g = np.empty_like(g)
        fd_H = np.empty_like(H)
        for k in range(L + 1):
            e = np.zeros(L + 1)
            e[k] = h
            fd_g[k] = (value(theta + e) - value(theta - e)) / (2 * h)
            fd_H[:, k] = (hess_and_grad(theta + e)[1]
                          - hess_and_grad(theta - e)[1]) / (2 * h)
        assert np.max(np.abs(fd_g - g)) / max(1.0, np.max(np.abs(g))) < 1e-5
        assert np.max(np.abs(fd_H - H)) / np.max(np.abs(H)) < 1e-5
    assert time.perf_counter() - start < 10.0


# --- 3. spline suite ---------------------------------------------------------

def test_spline_suite():
    basis = make_basis(1.0, 3, 30)
    M = basis.interior_interval_count

    pts = np.linspace(0.0, 1.0, 2000)
    E = eval_basis_many(basis, pts)
    assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12

    data = FunctionalDataset(np.linspace(0, 1, 101), np.ones((1, 101)))
    design = build_design(data, basis, m=2)
    assert np.linalg.eigvalsh(design.V).min() >= -1e-8
    for W in design.W_blocks:
        assert np.linalg.eigvalsh(W).min() >= -1e-12

    # block sum against a very fine trapezoid Gram oracle
    ts = np.linspace(0.0, 1.0, 200_001)
    Ef = eval_basis_many(basis, ts)
    w = np.full(ts.size, ts[1] - ts[0])
    w[0] = w[-1] = 0.5 * (ts[1] - ts[0])
    ref = (Ef * w[:, None]).T @ Ef
    total = assemble_blocks(design.W_blocks)
    assert np.max(np.abs(total - ref)) / np.max(np.abs(ref)) < 1e-6

    # constant and linear coefficient functions carry zero roughness (m=2)
    grid = np.linspace(0, 1, 2001)
    Eg = eval_basis_many(basis, grid)
    for target in (np.ones_like(grid), grid):
        b = np.linalg.lstsq(Eg, target, rcond=None)[0]
        scale = np.abs(b) @ np.abs(design.V) @ np.abs(b)
        assert abs(b @ design.V @ b) <= 1e-12 * scale


# --- 4. objective descent ----------------------------------------------------

def test_objective_trace_non_increasing_over_seeded_fits():
    for seed in range(20):
        basis, design, y = _simulated_problem(seed, n=200, M=30)
        cfg = SolverConfig(lam=10.9, gamma=3e-4, max_iterations=300)
        res = fit(design.U, y, basis, design, cfg)
        trace = np.asarray(res.objective_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-12), f"ascent at seed {seed}"


# --- 5. median classification window ----------------------------------------

def test_median_classification_rates_hit_reference_window(one_null_1000):
    """Estimator medians within the paper's tolerances of the oracle's."""
    med = one_null_1000.medians
    tolerances = {"mcr": 0.03, "sensitivity": 0.05, "specificity": 0.05}
    gaps = {k: med[k] - med[f"bayes_{k}"] for k in tolerances}
    report = "; ".join(
        f"{k}: estimator {med[k]:.4f}, oracle {med[f'bayes_{k}']:.4f}, "
        f"gap {gaps[k]:+.4f} (tolerance {tol})"
        for k, tol in tolerances.items())
    assert all(abs(gaps[k]) <= tol for k, tol in tolerances.items()), (
        "median classification rates outside the window around the Bayes "
        f"oracle's medians on the same test sets: {report}; the paper's "
        f"median MCR is 0.236 (estimator gap {med['mcr'] - 0.236:+.4f})")


# --- 6. null-region recovery --------------------------------------------------

def test_null_region_recovery(one_null_1000):
    med = one_null_1000.medians
    assert med["ise0"] <= 1.0
    assert med["null_fraction"] >= 0.8


# --- 7. sample-size trend -----------------------------------------------------

def test_three_null_medians_improve_with_sample_size(three_null_trend):
    for key in ("mcr", "ise0", "ise1"):
        vals = [three_null_trend[n].medians[key] for n in (150, 450, 1000)]
        assert vals[0] >= vals[1] >= vals[2], f"{key} not non-increasing: {vals}"
    assert three_null_trend[1000].medians["mcr"] <= 0.20


# --- 8. noise robustness -------------------------------------------------------

def test_noise_degrades_but_never_helps(noise_pairs):
    for n in (150, 450, 1000):
        noisy = noise_pairs[n, 1.0].medians["mcr"]
        clean = noise_pairs[n, None].medians["mcr"]
        assert noisy >= clean, (n, noisy, clean)


def test_noisy_medians_hit_reference_window(noise_pairs):
    """Median MCR at SNR 1 within the paper's 0.05 of the Bayes rule's.

    The Bayes rule sees the same noisy test curves. Noise is drawn last in
    each replicate, so the seed-matched noiseless run shares the test set,
    and its oracle gives the clean level for the report.
    """
    paper = {450: 0.240, 1000: 0.238}
    for n in (450, 1000):
        noisy = noise_pairs[n, 1.0].medians
        clean = noise_pairs[n, None].medians
        gap = noisy["mcr"] - noisy["bayes_mcr"]
        assert abs(gap) <= 0.05, (
            f"N={n}: noisy median MCR {noisy['mcr']:.4f}, Bayes rule on the "
            f"noisy curves {noisy['bayes_mcr']:.4f}, gap {gap:+.4f} "
            f"(tolerance 0.05); noise cost over the noiseless run: estimator "
            f"{noisy['mcr'] - clean['mcr']:+.4f}, Bayes rule "
            f"{noisy['bayes_mcr'] - clean['bayes_mcr']:+.4f}, paper "
            f"{paper[n] - 0.236:+.4f}; gap to the paper's {paper[n]} "
            f"{noisy['mcr'] - paper[n]:+.4f}")


# --- 9. penalty-limit behaviour -------------------------------------------------

def test_huge_sparsity_penalty_collapses_to_intercept():
    basis, design, y = _simulated_problem(BASE_SEED + 2, n=200, M=30)
    cfg = SolverConfig(lam=1e6, gamma=1e-4, max_iterations=300)
    res = fit(design.U, y, basis, design, cfg)
    assert np.all(res.b == 0.0)
    assert np.all(res.null_mask)
    pbar = y.mean()
    assert abs(res.alpha - math.log(pbar / (1.0 - pbar))) < 1e-4


# --- 10. determinism -------------------------------------------------------------

def test_replication_is_bit_exact(one_null_1000):
    spec = ScenarioSpec("one_null", n_train=1000, n_test=1000, seed=BASE_SEED)
    grid = default_tuning_grid("one_null", 1000)
    again = replicate_experiment(spec, grid, 25, _CONFIG)
    assert again.n_failed == 0
    assert len(again.rows) == len(one_null_1000.rows)
    for r1, r2 in zip(one_null_1000.rows, again.rows):
        assert r1 == r2
