"""Scenario generators: coefficient functions, predictors, responses, harness."""
import math
import threading
import tracemalloc

import numpy as np
import pytest

from sflr import simulate, solver
from sflr.basis import eval_basis_many, make_basis
from sflr.design import FunctionalDataset, compute_U
from sflr.simulate import (NULL_REGIONS, ScenarioSpec, _linear_predictor,
                           add_observation_noise,
                           beta_one_null, beta_spectra, beta_three_null,
                           calibrate_alpha, default_tuning_grid,
                           generate_predictors, generate_responses,
                           interval_count_rule, posterior_mean_curves,
                           replicate_experiment, run_replicate, spectra_means,
                           true_beta)
from sflr.solver import SolverConfig
from sflr.tuning import TuningGrid


def _reference_beta(scenario, t):
    """The bundled coefficient functions as first written, one formula per
    mask, on an array of t in [0, 1]."""
    out = np.zeros_like(t)
    if scenario == "one_null":
        left, right = t <= 0.3, t >= 0.7
        out[left] = (15.0 * (1.0 - t[left])
                     * np.sin(2.0 * np.pi * (t[left] + 0.2)))
        out[right] = 15.0 * t[right] * np.sin(2.0 * np.pi * (t[right] - 0.2))
    elif scenario == "three_null":
        mid1 = (t >= 0.05) & (t <= 0.3)
        mid2 = (t >= 0.7) & (t <= 0.95)
        out[mid1] = (180.0 * (t[mid1] - 0.5)
                     * np.sin(4.0 * np.pi * (t[mid1] + 0.7)))
        out[mid2] = 45.0 * t[mid2] * np.sin(4.0 * np.pi * (t[mid2] + 0.3))
    else:
        lo = (t >= 0.15) & (t <= 0.35)
        hi = (t >= 0.55) & (t <= 0.8)
        out[lo] = 8.0 * np.sin(np.pi * (t[lo] - 0.15) / 0.2)
        out[hi] = -6.0 * np.sin(np.pi * (t[hi] - 0.55) / 0.25)
    return out


class TestScenarioTable:
    @pytest.mark.parametrize("scenario", ["one_null", "three_null", "spectra"])
    def test_beta_matches_reference_bit_for_bit(self, scenario):
        ends = [x for piece, _ in simulate._BETA_PIECES[scenario]
                for x in piece]
        ts = np.concatenate([np.linspace(0.0, 1.0, 100_001), ends])
        ref = _reference_beta(scenario, ts)
        named = getattr(simulate, "beta_" + scenario)
        for beta in (named, true_beta(scenario)[0]):
            np.testing.assert_array_equal(beta(ts), ref)
            for t, r in zip(ends, _reference_beta(scenario, np.array(ends))):
                got = beta(t)
                assert isinstance(got, float) and got == r, (t, got, r)

    def test_null_regions_are_the_designed_intervals(self):
        assert NULL_REGIONS == {
            "one_null": [(0.3, 0.7)],
            "three_null": [(0.0, 0.05), (0.3, 0.7), (0.95, 1.0)],
            "spectra": [(0.0, 0.15), (0.35, 0.55), (0.8, 1.0)],
        }
        assert simulate.SCENARIOS == ("one_null", "three_null", "spectra")

    @pytest.mark.parametrize("scenario", ["one_null", "three_null", "spectra"])
    def test_beta_is_nonzero_mid_support_piece(self, scenario):
        beta, nulls = true_beta(scenario)
        for (a, b), _ in simulate._BETA_PIECES[scenario]:
            mid = 0.5 * (a + b)
            assert beta(mid) != 0.0, (scenario, mid)
            assert not any(c <= mid <= d for c, d in nulls)


class TestBetaFunctions:
    def test_one_null_frozen_values(self):
        assert beta_one_null(0.5) == 0.0
        assert beta_one_null(0.2) == pytest.approx(7.05342302750, abs=1e-9)
        assert beta_one_null(1.0) == pytest.approx(-14.2658477444, abs=1e-9)
        # published rounded values agree loosely
        assert beta_one_null(0.2) == pytest.approx(7.0534, abs=5e-4)

    def test_three_null_frozen_values(self):
        assert beta_three_null(0.02) == 0.0
        assert beta_three_null(0.1) == pytest.approx(42.3205381650, abs=1e-9)
        assert beta_three_null(0.8) == pytest.approx(34.2380345866, abs=1e-9)

    @pytest.mark.parametrize("scenario", ["one_null", "three_null", "spectra"])
    def test_vanishes_on_designed_null_regions(self, scenario):
        beta, nulls = true_beta(scenario)
        rng = np.random.default_rng(0)
        for a, b in nulls:
            if b <= a:
                continue
            ts = rng.uniform(a, b, 10_000)
            assert np.all(beta(ts) == 0.0)

    def test_out_of_domain_rejected(self):
        for f in (beta_one_null, beta_three_null, beta_spectra):
            with pytest.raises(ValueError):
                f(-0.1)
            with pytest.raises(ValueError):
                f(1.1)

    def test_scalar_and_vector_agree(self):
        ts = np.array([0.1, 0.25, 0.81])
        vec = beta_three_null(ts)
        for t, v in zip(ts, vec):
            assert beta_three_null(float(t)) == v


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("bogus", n_train=10)
        with pytest.raises(ValueError):
            ScenarioSpec("one_null", n_train=0)
        with pytest.raises(ValueError):
            ScenarioSpec("one_null", n_train=10, snr=0.0)

    def test_grid(self):
        spec = ScenarioSpec("one_null", n_train=10, grid_size=11)
        np.testing.assert_allclose(spec.grid, np.arange(11) / 10.0)


class TestGeneratePredictors:
    def test_seed_reproducible(self):
        spec = ScenarioSpec("one_null", n_train=20, seed=42)
        a = generate_predictors(spec)
        b = generate_predictors(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_stationarity_at_half(self):
        from sflr.basis import eval_basis_many, make_basis
        spec = ScenarioSpec("one_null", n_train=4000, seed=3)
        X = generate_predictors(spec)
        mid = X.values[:, 50]  # t = 0.5 on the 101-point grid
        e_half = eval_basis_many(make_basis(1.0, 4, 70), [0.5])[0]
        var_theory = float(np.sum(e_half ** 2))
        se_mean = math.sqrt(var_theory / 4000)
        assert abs(mid.mean()) < 3 * se_mean
        se_var = var_theory * math.sqrt(2.0 / 3999)
        assert abs(mid.var(ddof=1) - var_theory) < 3 * se_var

    def test_snr_one_noise_variance_ratio(self):
        rng = np.random.default_rng(8)
        spec = ScenarioSpec("one_null", n_train=200, seed=8)
        clean = generate_predictors(spec, rng=rng).values
        noisy = add_observation_noise(clean, 1.0, rng)
        noise = noisy - clean
        ratio = clean.var() / noise.var()
        assert 0.8 <= ratio <= 1.25

    def test_spectra_shape(self):
        spec = ScenarioSpec("spectra", n_train=60, seed=1)
        X = generate_predictors(spec)
        assert X.values.shape == (60, 101)
        mean_a, mean_b = spectra_means(spec.grid)
        # the two designed difference windows separate the group means
        first = X.values[:30].mean(axis=0)
        second = X.values[30:].mean(axis=0)
        inside = (spec.grid > 0.2) & (spec.grid < 0.3)
        outside = (spec.grid > 0.4) & (spec.grid < 0.5)
        assert np.abs((first - second)[inside]).max() > 1.0
        # Gaussian tails leak a little outside the designed windows
        assert np.abs(mean_a[outside] - mean_b[outside]).max() < 5e-3


class TestPosteriorMeanCurves:
    def test_faint_noise_returns_the_curves(self):
        spec = ScenarioSpec("one_null", n_train=20, seed=4)
        X = generate_predictors(spec).values
        post = posterior_mean_curves("one_null", X, spec.grid, 1e-6)
        assert np.max(np.abs(post - X)) < 1e-8

    @pytest.mark.parametrize("scenario", ["one_null", "spectra"])
    def test_overwhelming_noise_returns_the_prior_mean(self, scenario):
        spec = ScenarioSpec(scenario, n_train=20, seed=4)
        X = generate_predictors(spec).values
        post = posterior_mean_curves(scenario, X, spec.grid, 1e8)
        prior = np.zeros_like(X)
        if scenario == "spectra":
            mean_a, mean_b = spectra_means(spec.grid)
            prior[:10], prior[10:] = mean_a, mean_b
        assert np.max(np.abs(post - prior)) < 1e-6

    @pytest.mark.parametrize("scenario", ["one_null", "three_null", "spectra"])
    def test_denoises_at_snr_one(self, scenario):
        rng = np.random.default_rng(6)
        spec = ScenarioSpec(scenario, n_train=300, seed=6)
        clean = generate_predictors(spec, rng=rng).values
        noisy = add_observation_noise(clean, 1.0, rng)
        sd = float(clean.std())
        post = posterior_mean_curves(scenario, noisy, spec.grid, sd)
        noisy_mse = np.mean((noisy - clean) ** 2)
        assert np.mean((post - clean) ** 2) < 0.5 * noisy_mse

    def test_rejects_nonpositive_noise(self):
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            posterior_mean_curves("one_null", np.zeros((2, 101)), grid, 0.0)


class TestGenerateResponses:
    def test_zero_beta_gives_half(self):
        ts = np.linspace(0, 1, 11)
        X = FunctionalDataset(ts, np.random.default_rng(0)
                              .standard_normal((50, 11)))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        _, p = generate_responses(X, zero, 0.0, 1)
        np.testing.assert_allclose(p, 0.5, atol=1e-14)

    def test_intercept_only_closed_form(self):
        ts = np.linspace(0, 1, 11)
        X = FunctionalDataset(ts, np.zeros((10, 11)))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        _, p = generate_responses(X, zero, 3.0, 1)
        np.testing.assert_allclose(p, 1 / (1 + math.exp(-3.0)), atol=1e-12)

    def test_class_fraction_matches_probabilities(self):
        spec = ScenarioSpec("one_null", n_train=10_000, seed=5)
        X = generate_predictors(spec)
        y, p = generate_responses(X, beta_one_null, 0.0, 99)
        se = math.sqrt(np.mean(p * (1 - p)) / p.size)
        assert abs(y.mean() - p.mean()) < 3 * se


class TestLinearPredictor:
    """``_linear_predictor`` integrates beta by ``trapezoid_weights``, the
    rule ``compute_U`` builds the design matrix with."""

    @staticmethod
    def _trapezoid_reference(X, beta, alpha):
        return alpha + np.trapezoid(X.values * beta(X.grid), X.grid, axis=1)

    def test_matches_trapezoid_on_an_uneven_grid(self):
        rng = np.random.default_rng(8)
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 61)), [1.0]])
        X = FunctionalDataset(ts, rng.standard_normal((300, ts.size)))
        got = _linear_predictor(X, beta_one_null, 0.7)
        ref = self._trapezoid_reference(X, beta_one_null, 0.7)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scenario", ["one_null", "three_null", "spectra"])
    @pytest.mark.parametrize("grid_size", [101, 201])
    def test_matches_trapezoid_on_scenario_grids(self, scenario, grid_size):
        spec = ScenarioSpec(scenario, n_train=400, grid_size=grid_size,
                            seed=3)
        X = generate_predictors(spec)
        beta, _ = true_beta(scenario)
        got = _linear_predictor(X, beta, -0.4)
        ref = self._trapezoid_reference(X, beta, -0.4)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("l", [0, 7, 32])
    def test_basis_function_beta_gives_the_design_column(self, l):
        # generation and estimation share one quadrature rule
        spec = ScenarioSpec("one_null", n_train=200, seed=4)
        X = generate_predictors(spec)
        basis = make_basis(1.0, 3, 30)
        column = compute_U(X, basis)[:, l]
        got = _linear_predictor(
            X, lambda t: eval_basis_many(basis, t)[:, l], 0.0)
        assert np.max(np.abs(got - column)) <= 1e-12 * np.max(np.abs(column))

    def test_generate_responses_holds_no_copy_of_the_curves(self):
        rng = np.random.default_rng(5)
        X = FunctionalDataset(np.linspace(0, 1, 201),
                              rng.standard_normal((2000, 201)))
        tracemalloc.start()
        try:
            generate_responses(X, beta_one_null, 0.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.values.nbytes


def test_calibrate_alpha_balances_spectra():
    spec = ScenarioSpec("spectra", n_train=200, seed=2)
    X = generate_predictors(spec)
    alpha = calibrate_alpha(X, beta_spectra)
    _, p = generate_responses(X, beta_spectra, alpha, 0)
    assert abs(p.mean() - 0.5) < 0.05


def _calibrate_alpha_200_steps(X, beta):
    """The bisection of ``calibrate_alpha`` run for all of its 200 steps."""
    eta0 = _linear_predictor(X, beta, 0.0)
    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(solver._sigmoid(mid + eta0))) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_calibrate_alpha_stops_at_the_bisection_fixpoint(monkeypatch):
    # once a step leaves the bracket unchanged every later step repeats
    # it, so stopping there gives the 200-step intercept's bits
    passes = []

    def counted_sigmoid(eta):
        passes.append(1)
        return solver._sigmoid(eta)

    cases = [(generate_predictors(ScenarioSpec("spectra", n_train=n,
                                               seed=seed)), beta_spectra)
             for n in (100, 1000) for seed in (1, 2, 3)]
    # beta = 0 balances at alpha = 0, where floats are densest; beta = 200
    # on constant curves balances at -200, outside the [-50, 50] bracket
    cases.append((cases[0][0], lambda t: np.zeros_like(t)))
    ones = FunctionalDataset(np.linspace(0.0, 1.0, 11), np.ones((3, 11)))
    cases.append((ones, lambda t: np.full_like(t, 200.0)))
    monkeypatch.setattr(simulate, "_sigmoid", counted_sigmoid)
    for X, beta in cases:
        passes.clear()
        assert (calibrate_alpha(X, beta).hex()
                == _calibrate_alpha_200_steps(X, beta).hex())
        assert len(passes) < 200


def test_interval_count_rule():
    assert interval_count_rule(101) == 30  # floor of the rule
    assert interval_count_rule(10 ** 6) == math.ceil(10 * 10 ** (12 / 9))


class TestDefaultTuningGrid:
    def test_scales_with_training_size(self):
        small = default_tuning_grid("one_null", 100)
        big = default_tuning_grid("one_null", 1000)
        assert big.lambdas[0] == pytest.approx(10 * small.lambdas[0])
        assert small.gammas == big.gammas

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            default_tuning_grid("bogus", 100)


class TestReplicationHarness:
    @pytest.fixture(scope="class")
    @staticmethod
    def small_run():
        spec = ScenarioSpec("one_null", n_train=120, n_test=80, seed=77)
        grid = TuningGrid(lambdas=(8.0,), gammas=(1e-4,), criterion="bic")
        return replicate_experiment(spec, grid, 3,
                                    SolverConfig(max_iterations=200))

    def test_rows_and_medians(self, small_run):
        assert small_run.n_failed == 0
        assert len(small_run.rows) == 3
        mcrs = sorted(r["mcr"] for r in small_run.rows)
        assert small_run.medians["mcr"] == pytest.approx(mcrs[1])

    def test_single_replicate_median_is_the_row(self):
        spec = ScenarioSpec("one_null", n_train=100, n_test=60, seed=5)
        res = replicate_experiment(spec, TuningGrid((8.0,), (1e-4,)), 1,
                                   SolverConfig(max_iterations=200))
        assert res.medians["mcr"] == res.rows[0]["mcr"]

    def test_bit_exact_determinism(self, small_run):
        spec = ScenarioSpec("one_null", n_train=120, n_test=80, seed=77)
        grid = TuningGrid(lambdas=(8.0,), gammas=(1e-4,), criterion="bic")
        again = replicate_experiment(spec, grid, 3,
                                     SolverConfig(max_iterations=200))
        for r1, r2 in zip(small_run.rows, again.rows):
            assert r1 == r2

    def test_replicates_run_in_order_in_the_calling_thread(self,
                                                          monkeypatch):
        import sflr.simulate
        calls = []
        inner = sflr.simulate.run_replicate

        def recording(spec, grid, config, replicate):
            calls.append((replicate, threading.get_ident()))
            return inner(spec, grid, config, replicate)

        monkeypatch.setattr(sflr.simulate, "run_replicate", recording)
        spec = ScenarioSpec("one_null", n_train=60, n_test=30, seed=5)
        res = replicate_experiment(spec, TuningGrid((4.0,), (1e-4,)), 3,
                                   SolverConfig(max_iterations=200))
        assert calls == [(r, threading.get_ident()) for r in range(3)]
        assert [row["replicate"] for row in res.rows] == [0, 1, 2]

    def test_degenerate_replicates_counted_not_raised(self):
        # one training curve leaves one class, so each replicate fails
        spec = ScenarioSpec("one_null", n_train=1, n_test=30, seed=0)
        with pytest.warns(RuntimeWarning, match="failed"):
            res = replicate_experiment(spec, TuningGrid((1.0,), (1e-4,)), 2,
                                       SolverConfig(max_iterations=10))
        assert res.n_failed == 2
        assert res.rows == [] and res.medians["mcr"] is None

    def test_run_replicate_row_contract(self):
        spec = ScenarioSpec("one_null", n_train=80, n_test=50, seed=13)
        grid = TuningGrid((4.0,), (1e-4,))
        row = run_replicate(spec, grid, SolverConfig(max_iterations=200), 2)
        for key in ("replicate", "mcr", "sensitivity", "specificity", "fdr",
                    "miss_rate", "ise0", "ise1", "pmse", "lambda", "gamma",
                    "converged", "null_fraction"):
            assert key in row
        assert row["replicate"] == 2
        assert row["lambda"] == 4.0 and row["gamma"] == 1e-4
        assert 0.0 <= row["mcr"] <= 1.0
        bayes = ("bayes_mcr", "bayes_sensitivity", "bayes_specificity")
        for key in bayes:
            assert 0.0 <= row[key] <= 1.0
        # noise is drawn last, so a seed-matched replicate with vanishing
        # noise shares the test labels, and its Bayes rule (the posterior
        # mean of the curves) reduces to the true probabilities
        faint = run_replicate(ScenarioSpec("one_null", n_train=80, n_test=50,
                                           snr=1e12, seed=13),
                              grid, SolverConfig(max_iterations=200), 2)
        assert {k: faint[k] for k in bayes} == {k: row[k] for k in bayes}
