"""Grid search over (lambda, gamma): information criteria, CV, determinism."""
import math

import numpy as np
import pytest

from sflr import solver, tuning
from sflr.basis import make_basis
from sflr.dataio import DataError
from sflr.design import FunctionalDataset, build_design
from sflr.solver import FitResult, SolverConfig, clamped_probs, fit
from sflr.tuning import TuningGrid, score_ic, stratified_folds, tune


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

    @pytest.mark.parametrize("n, k", [(200, 5), (37, 4), (9, 6), (1, 2)])
    def test_matches_round_robin_reference(self, n, k):
        # deal each class's shuffled curves to the folds in turn, one index
        # at a time, as a reference for the sliced assignment
        labels = (np.random.default_rng(n).random(n) < 0.3).astype(int)
        rng = np.random.default_rng(11)
        ref = [[] for _ in range(k)]
        for cls in (0, 1):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            for pos, i in enumerate(idx):
                ref[pos % k].append(int(i))
        got = stratified_folds(labels, k, seed=11)
        assert len(got) == k
        for fold, want in zip(got, ref):
            assert fold.dtype == np.int64
            np.testing.assert_array_equal(fold, sorted(want))

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

    def test_cv_fold_without_held_out_curves_raises(self, setup):
        # 6 folds over 5 curves per class: the sixth fold holds out nothing
        _, basis, cfg = setup
        ts = np.linspace(0, 1, 21)
        data = FunctionalDataset(ts, np.random.default_rng(0)
                                 .standard_normal((10, 21)),
                                 np.arange(10) % 2)
        grid = TuningGrid(lambdas=(1.0,), gammas=(1e-3,), criterion="cv",
                          folds=6)
        with pytest.raises(DataError, match=r"^CV with 6 folds leaves 1 of "
                           r"them without held-out curves: the classes have "
                           r"5 and 5 curves$"):
            tune(data, basis, grid, cfg)

    def _recording_fit(self, monkeypatch):
        """Record every fit tune makes, with its arguments."""
        calls = []

        def recording(*args, **kwargs):
            res = fit(*args, **kwargs)
            calls.append((args, res))
            return res

        monkeypatch.setattr(tuning, "fit", recording)
        return calls

    @staticmethod
    def _assert_same_fit(res, ref):
        for name in ("b", "null_mask", "objective_trace"):
            assert np.array_equal(getattr(res, name), getattr(ref, name))
        for name in ("alpha", "iterations", "converged", "df", "loglik",
                     "final_objective"):
            assert getattr(res, name) == getattr(ref, name), name

    def test_bic_matches_unshared_fits(self, setup, monkeypatch):
        # lambda = 0 reports the initial fit's iterations and convergence
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(0.0, 0.5, 2.0, 8.0), gammas=(1e-2, 1e-4),
                          criterion="bic")
        calls = self._recording_fit(monkeypatch)
        result = tune(data, basis, grid, cfg)
        assert len(calls) == 8
        design = build_design(data, basis, cfg.m)
        y = data.labels.astype(np.float64)
        for (args, res), row in zip(calls, result.table):
            ref = fit(design.U, y, basis, design, args[4])
            self._assert_same_fit(res, ref)
            assert (row["lambda"], row["gamma"]) == (ref.lam, ref.gamma)
            assert row["score"] == score_ic(ref, data.n_samples, "bic")
        best = [res for _, res in calls
                if (res.lam, res.gamma) == (result.best_lambda,
                                            result.best_gamma)]
        self._assert_same_fit(result.best_fit, best[0])

    def test_cv_matches_unshared_fits(self, setup, monkeypatch):
        data, basis, cfg = setup
        grid = TuningGrid(lambdas=(0.0, 1.0, 4.0), gammas=(1e-3, 1e-2),
                          criterion="cv", folds=4, seed=5)
        calls = self._recording_fit(monkeypatch)
        result = tune(data, basis, grid, cfg)
        assert len(calls) == 6 * 4
        design = build_design(data, basis, cfg.m)
        y = data.labels.astype(np.float64)
        folds = stratified_folds(data.labels, 4, 5)
        for i, row in enumerate(result.table):
            losses = []
            for k, val_idx in enumerate(folds):
                train = np.ones(y.size, dtype=bool)
                train[val_idx] = False
                args, res = calls[4 * i + k]
                ref = fit(design.U[train], y[train], basis, design, args[4])
                self._assert_same_fit(res, ref)
                p = clamped_probs(ref.alpha + design.U[val_idx] @ ref.b)
                yv = y[val_idx]
                losses.append(float(np.mean(
                    -2.0 * (yv * np.log(p) + (1 - yv) * np.log1p(-p)))))
            assert row["score"] == float(np.mean(losses))

    @pytest.mark.parametrize("criterion", ["bic", "aic", "cv"])
    def test_unconverged_pair_stops_at_its_first_split(self, setup,
                                                       monkeypatch, criterion):
        # one Newton iteration converges no fit: BIC and AIC fit each pair
        # once on every curve, and CV fits each pair on its first fold only
        data, basis, _ = setup
        cfg = SolverConfig(m=2, max_iterations=1)
        grid = TuningGrid(lambdas=(0.0, 1.0, 4.0), gammas=(1e-3, 1e-2),
                          criterion=criterion, folds=4, seed=5)
        calls = self._recording_fit(monkeypatch)
        with pytest.raises(RuntimeError,
                           match="^no tuning grid point converged$"):
            tune(data, basis, grid, cfg)
        assert [(args[4].lam, args[4].gamma) for args, _ in calls] == \
            [(lam, gam) for lam in grid.lambdas for gam in grid.gammas]
        assert not any(res.converged for _, res in calls)
        train = np.ones(data.n_samples, dtype=bool)
        if criterion == "cv":
            train[stratified_folds(data.labels, 4, 5)[0]] = False
        y = data.labels.astype(np.float64)
        for args, _ in calls:
            assert np.array_equal(args[1], y[train])

    @pytest.mark.parametrize("criterion, folds", [("bic", 5), ("aic", 5),
                                                  ("cv", 3)])
    def test_initial_fit_runs_once_per_gamma_and_fold(self, setup,
                                                      monkeypatch,
                                                      criterion, folds):
        data, basis, cfg = setup
        gammas = []
        real = solver.fit_initial

        def counting(U, y, V, config):
            gammas.append(config.gamma)
            return real(U, y, V, config)

        monkeypatch.setattr(tuning, "fit_initial", counting)
        monkeypatch.setattr(solver, "fit_initial", counting)
        grid = TuningGrid(lambdas=(0.0, 1.0, 4.0), gammas=(1e-3, 1e-2, 1e-3),
                          criterion=criterion, folds=folds)
        tune(data, basis, grid, cfg)
        n_splits = folds if criterion == "cv" else 1
        assert sorted(gammas) == [1e-3] * n_splits + [1e-2] * n_splits

    @pytest.mark.parametrize("criterion", ["bic", "cv"])
    def test_failed_initial_fit_scores_its_pairs_inf(self, setup, monkeypatch,
                                                     criterion):
        data, basis, cfg = setup
        real = solver.fit_initial

        def failing(U, y, V, config):
            if config.gamma == 1e-2:
                raise np.linalg.LinAlgError("non-finite Newton system")
            return real(U, y, V, config)

        monkeypatch.setattr(tuning, "fit_initial", failing)
        monkeypatch.setattr(solver, "fit_initial", failing)
        grid = TuningGrid(lambdas=(1.0, 4.0), gammas=(1e-3, 1e-2),
                          criterion=criterion, folds=3)
        result = tune(data, basis, grid, cfg)
        assert [row["score"] == math.inf for row in result.table] == \
            [False, True, False, True]
        assert result.best_gamma == 1e-3


def test_deviance_matches_mean_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    p = clamped_probs(rng.standard_normal(997) * 20.0)
    y = rng.integers(0, 2, p.size).astype(float)
    assert p.min() == solver.PROB_CLAMP and p.max() == 1.0 - solver.PROB_CLAMP
    expected = np.mean(-2.0 * (y * np.log(p) + (1 - y) * np.log1p(-p)))
    got = tuning._deviance(y, p)
    assert type(got) is float and got.hex() == float(expected).hex()
