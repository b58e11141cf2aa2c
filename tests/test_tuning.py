"""Grid search over (lambda, gamma): information criteria, CV, determinism."""
import math

import numpy as np
import pytest

from sflr.basis import make_basis
from sflr.design import FunctionalDataset
from sflr.solver import FitResult, SolverConfig
from sflr.tuning import (TuningGrid, score_ic, score_table_csv,
                         stratified_folds, tune)


def _fit_result(loglik=-50.0, df=3.0, converged=True):
    return FitResult(b=np.zeros(5), alpha=0.0, null_mask=np.zeros(3, bool),
                     converged=converged, loglik=loglik, df=df)


def _dataset(seed=0, n=120, n_points=51):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0, 1, n_points)
    X = rng.standard_normal((n, n_points))
    eta = 3.0 * np.trapezoid(X * np.sin(2 * np.pi * ts), ts, axis=1)
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
    return FunctionalDataset(ts, X, y)


class TestScoreIc:
    def test_formulas(self):
        res = _fit_result(loglik=-50.0, df=3.0)
        assert score_ic(res, 100, "bic") == pytest.approx(
            100.0 + math.log(100) * 3.0)
        assert score_ic(res, 100, "aic") == pytest.approx(106.0)

    def test_bic_equals_aic_when_log_n_is_two(self):
        res = _fit_result(loglik=-12.0, df=4.5)
        n = math.e ** 2
        assert score_ic(res, n, "bic") == pytest.approx(score_ic(res, n, "aic"))

    def test_zero_df_reduces_to_deviance(self):
        res = _fit_result(loglik=-7.0, df=0.0)
        assert score_ic(res, 1000, "bic") == 14.0
        assert score_ic(res, 1000, "aic") == 14.0

    def test_intercept_only_closed_form(self):
        # Bernoulli MLE with 60% ones at N=100
        ll = 100 * (0.6 * math.log(0.6) + 0.4 * math.log(0.4))
        res = _fit_result(loglik=ll, df=1.0)
        assert score_ic(res, 100, "bic") == pytest.approx(
            -2 * ll + math.log(100))

    def test_rejects_non_converged(self):
        with pytest.raises(ValueError, match="converged"):
            score_ic(_fit_result(converged=False), 100, "bic")


class TestTuningGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuningGrid(lambdas=(), gammas=(1.0,))
        with pytest.raises(ValueError):
            TuningGrid(lambdas=(1.0,), gammas=(1.0,), criterion="nope")
        with pytest.raises(ValueError):
            TuningGrid(lambdas=(1.0,), gammas=(1.0,), criterion="cv", folds=1)


class TestStratifiedFolds:
    def test_partition_and_proportions(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(200) < 0.3).astype(int)
        folds = stratified_folds(labels, 5, seed=7)
        all_idx = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(all_idx, np.arange(200))
        global_prop = labels.mean()
        for f in folds:
            assert abs(labels[f].mean() - global_prop) <= 1.0 / f.size + 1e-12

    def test_seed_reproducible(self):
        labels = np.array([0, 1] * 30)
        a = stratified_folds(labels, 4, seed=11)
        b = stratified_folds(labels, 4, seed=11)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)


class TestTune:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        data = _dataset(seed=1)
        basis = make_basis(1.0, 3, 8)
        return data, basis, SolverConfig(m=2)

    def test_single_point_grid(self, setup):
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(2.0,), gammas=(1e-3,), criterion="bic")
        result = tune(data, basis, grid, cfg)
        assert result.best_lambda == 2.0 and result.best_gamma == 1e-3
        assert len(result.table) == 1

    def test_table_shape_and_minimum(self, setup):
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(0.5, 2.0, 8.0), gammas=(1e-2, 1e-4),
                          criterion="bic")
        result = tune(data, basis, grid, cfg)
        assert len(result.table) == 6
        best = min(row["score"] for row in result.table)
        chosen = [row for row in result.table
                  if row["lambda"] == result.best_lambda
                  and row["gamma"] == result.best_gamma]
        assert chosen[0]["score"] == best

    def test_duplicate_points_deterministic(self, setup):
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(2.0, 2.0), gammas=(1e-3,), criterion="bic")
        result = tune(data, basis, grid, cfg)
        scores = [row["score"] for row in result.table]
        assert scores[0] == scores[1]
        assert result.best_lambda == 2.0

    def test_cv_seed_reproducible(self, setup):
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(1.0, 4.0), gammas=(1e-3,), criterion="cv",
                          folds=4, seed=5)
        r1 = tune(data, basis, grid, cfg)
        r2 = tune(data, basis, grid, cfg)
        assert [row["score"] for row in r1.table] == \
               [row["score"] for row in r2.table]
        assert (r1.best_lambda, r1.best_gamma) == (r2.best_lambda,
                                                   r2.best_gamma)

    def test_requires_both_classes(self, setup):
        _, basis, cfg = setup
        ts = np.linspace(0, 1, 21)
        data = FunctionalDataset(ts, np.random.default_rng(0)
                                 .standard_normal((10, 21)),
                                 np.ones(10, dtype=int))
        grid = TuningGrid(lambdas=(1.0,), gammas=(1e-3,))
        with pytest.raises(ValueError, match="both classes"):
            tune(data, basis, grid, cfg)

    def test_requires_labels(self, setup):
        _, basis, cfg = setup
        ts = np.linspace(0, 1, 21)
        data = FunctionalDataset(ts, np.zeros((4, 21)))
        grid = TuningGrid(lambdas=(1.0,), gammas=(1e-3,))
        with pytest.raises(ValueError, match="label"):
            tune(data, basis, grid, cfg)

    def test_score_table_csv_format(self, setup):
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(1.0, 2.0), gammas=(1e-3,), criterion="bic")
        result = tune(data, basis, grid, cfg)
        text = score_table_csv(result)
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,gamma,criterion,score,converged"
        assert len(lines) == 3
