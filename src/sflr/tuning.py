"""Tuning-parameter selection over (lambda, gamma) grids by BIC, AIC, or CV."""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BSplineBasis
from .dataio import DataError
from .design import FunctionalDataset, build_design
from .solver import (FitResult, SolverConfig, _log_likelihood, clamped_probs,
                     fit, fit_initial)

CRITERIA = ("bic", "aic", "cv")


@dataclass(frozen=True)
class TuningGrid:
    lambdas: tuple[float, ...]
    gammas: tuple[float, ...]
    criterion: str = "bic"
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "gammas", tuple(float(v) for v in self.gammas))
        if not self.lambdas or not self.gammas:
            raise ValueError("tuning grids must be nonempty")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.criterion == "cv" and self.folds < 2:
            raise ValueError("CV needs at least 2 folds")


@dataclass
class TuningResult:
    best_lambda: float
    best_gamma: float
    table: list[dict] = field(repr=False)
    best_fit: FitResult | None = None


def score_ic(fit_result: FitResult, N: int, criterion: str) -> float:
    """BIC or AIC from a converged fit's log-likelihood and effective df."""
    if not fit_result.converged:
        raise ValueError("information criteria require a converged fit")
    penalty = math.log(N) if criterion == "bic" else 2.0
    return -2.0 * fit_result.loglik + penalty * fit_result.df


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified k-fold index sets (class proportions preserved):
    fold j holds every k-th curve of each class's shuffled order from the
    j-th on."""
    rng = np.random.default_rng(seed)
    shuffled = []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        shuffled.append(idx)
    return [np.sort(np.concatenate([idx[j::k] for idx in shuffled]))
            for j in range(k)]


def _deviance(y: np.ndarray, p: np.ndarray) -> float:
    """Mean Bernoulli deviance per curve."""
    return -2.0 * _log_likelihood(p, y) / y.size


def tune(data: FunctionalDataset, basis: BSplineBasis, grid: TuningGrid,
         config: SolverConfig) -> TuningResult:
    """Fit every grid pair and pick the score minimizer.

    One loop over training splits scores every pair: CV's stratified folds
    by the mean deviance of the curves each holds out, and the one split of
    BIC and AIC, which trains on every curve and holds none out, by the
    ``score_ic`` of its fit, kept as ``best_fit``. A pair scores +inf at
    its first split whose fit fails or does not converge. Ties break toward
    larger lambda, then larger gamma. The roughness-only initial fit
    depends on gamma and the training rows alone, so it runs once per gamma
    and split and starts every lambda; if it fails on any split, every pair
    of its gamma scores +inf. CV with more folds than the larger class has
    curves is a DataError, as some fold would hold out no curve.
    """
    if data.labels is None:
        raise ValueError("tuning requires labeled data")
    labels = np.asarray(data.labels)
    if labels.min() == labels.max():
        raise DataError("tuning requires both classes present")

    design = build_design(data, basis, config.m)
    U, y = design.U, labels.astype(np.float64)
    pairs = [(lam, gam) for lam in grid.lambdas for gam in grid.gammas]
    # each split: (training U, training y, held-out (U, y) or None)
    if grid.criterion == "cv":
        folds = stratified_folds(labels, grid.folds, grid.seed)
        n_empty = sum(f.size == 0 for f in folds)
        if n_empty:
            raise DataError(
                f"CV with {grid.folds} folds leaves {n_empty} of them without "
                f"held-out curves: the classes have {np.sum(labels == 0)} "
                f"and {np.sum(labels == 1)} curves")
        splits = []
        for held_out in folds:
            train = np.ones(y.size, dtype=bool)
            train[held_out] = False
            splits.append((U[train], y[train], (U[held_out], y[held_out])))
    else:  # BIC and AIC: one split that trains on every curve
        splits = [(U, y, None)]
    starts = {}  # gamma -> one initial fit per split, or None if one failed
    for gam in dict.fromkeys(grid.gammas):
        try:
            starts[gam] = [fit_initial(U_t, y_t, design.V,
                                       replace(config, gamma=gam))
                           for U_t, y_t, _ in splits]
        except (ValueError, np.linalg.LinAlgError):
            starts[gam] = None

    def evaluate(pair):
        lam, gam = pair
        if starts[gam] is None:
            return math.inf, None
        cfg = replace(config, lam=lam, gamma=gam)
        losses = []
        try:
            for (U_t, y_t, held_out), start in zip(splits, starts[gam]):
                res = fit(U_t, y_t, basis, design, cfg, initial=start)
                if not res.converged:
                    return math.inf, None
                if held_out is None:
                    return score_ic(res, data.n_samples, grid.criterion), res
                U_v, y_v = held_out
                p = clamped_probs(res.alpha + U_v @ res.b)
                losses.append(_deviance(y_v, p))
        except (ValueError, np.linalg.LinAlgError):
            return math.inf, None
        return float(np.mean(losses)), None

    # one worker: the fits are NumPy-bound, so more threads only lose
    # time; the pool stays because perfbench traces fits through it
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = list(pool.map(evaluate, pairs))

    table = [{"lambda": lam, "gamma": gam, "criterion": grid.criterion,
              "score": score,
              "converged": bool(score != math.inf)}
             for (lam, gam), (score, _) in zip(pairs, results)]

    best = min(range(len(pairs)),
               key=lambda i: (results[i][0], -pairs[i][0], -pairs[i][1]))
    if results[best][0] == math.inf:
        raise RuntimeError("no tuning grid point converged")
    return TuningResult(best_lambda=pairs[best][0], best_gamma=pairs[best][1],
                        table=table, best_fit=results[best][1])
