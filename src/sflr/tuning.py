"""Tuning-parameter selection over (lambda, gamma) grids by BIC, AIC, or CV."""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BSplineBasis
from .dataio import DataError
from .design import DesignMatrices, FunctionalDataset, build_design
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
    """Seeded stratified k-fold index sets (class proportions preserved)."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def _deviance(y: np.ndarray, p: np.ndarray) -> float:
    """Mean Bernoulli deviance per curve."""
    return -2.0 * _log_likelihood(p, y) / y.size


def _cv_score(splits, starts, basis: BSplineBasis, design: DesignMatrices,
              config: SolverConfig) -> float:
    """Mean held-out deviance over the folds; inf if a fold's fit fails.

    ``splits`` holds each fold's (U_train, y_train, U_held_out,
    y_held_out) and ``starts`` its initial fit for ``config.gamma``.
    """
    losses = []
    for (U_t, y_t, U_v, y_v), start in zip(splits, starts):
        res = fit(U_t, y_t, basis, design, config, initial=start)
        if not res.converged:
            return math.inf
        p = clamped_probs(res.alpha + U_v @ res.b)
        losses.append(_deviance(y_v, p))
    return float(np.mean(losses))


def _initial_fit(U: np.ndarray, y: np.ndarray, V: np.ndarray,
                 config: SolverConfig):
    """``fit_initial`` for ``config.gamma``, or None if it raises."""
    try:
        return fit_initial(U, y, V, config)
    except (ValueError, np.linalg.LinAlgError):
        return None


def tune(data: FunctionalDataset, basis: BSplineBasis, grid: TuningGrid,
         config: SolverConfig) -> TuningResult:
    """Fit every grid pair and pick the score minimizer.

    Ties break toward larger lambda, then larger gamma. Non-converged or
    failing grid points score +inf instead of raising. The roughness-only
    initial fit depends on gamma and the training rows alone, so it runs
    once per gamma (per fold for CV) and starts the fit of every lambda.
    CV with more folds than the larger class has curves is a DataError, as
    some fold would hold out no curve.
    """
    if data.labels is None:
        raise ValueError("tuning requires labeled data")
    labels = np.asarray(data.labels)
    if labels.min() == labels.max():
        raise DataError("tuning requires both classes present")

    design = build_design(data, basis, config.m)
    U, y = design.U, labels.astype(np.float64)
    pairs = [(lam, gam) for lam in grid.lambdas for gam in grid.gammas]
    if grid.criterion == "cv":
        folds = stratified_folds(labels, grid.folds, grid.seed)
        n_empty = sum(f.size == 0 for f in folds)
        if n_empty:
            raise DataError(
                f"CV with {grid.folds} folds leaves {n_empty} of them without "
                f"held-out curves: the classes have {np.sum(labels == 0)} "
                f"and {np.sum(labels == 1)} curves")
        splits = []
        for val_idx in folds:
            train_mask = np.ones(y.size, dtype=bool)
            train_mask[val_idx] = False
            splits.append((U[train_mask], y[train_mask], U[val_idx],
                           y[val_idx]))
    else:
        splits = [(U, y)]
    # a failed initial fit (None) scores every pair of its gamma inf
    starts = {gam: [_initial_fit(split[0], split[1], design.V,
                                 replace(config, gamma=gam))
                    for split in splits]
              for gam in dict.fromkeys(grid.gammas)}

    def evaluate(pair):
        lam, gam = pair
        cfg = replace(config, lam=lam, gamma=gam)
        if any(start is None for start in starts[gam]):
            return math.inf, None
        try:
            if grid.criterion == "cv":
                return _cv_score(splits, starts[gam], basis, design,
                                 cfg), None
            res = fit(U, y, basis, design, cfg, initial=starts[gam][0])
            if not res.converged:
                return math.inf, res
            return score_ic(res, data.n_samples, grid.criterion), res
        except (ValueError, np.linalg.LinAlgError):
            return math.inf, None

    # one worker: the fits are NumPy-bound, so more threads only lose
    # time; the pool stays because perfbench traces fits through it
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = list(pool.map(evaluate, pairs))

    table = [{"lambda": lam, "gamma": gam, "criterion": grid.criterion,
              "score": score,
              "converged": bool(score != math.inf)}
             for (lam, gam), (score, _) in zip(pairs, results)]

    order = sorted(range(len(pairs)),
                   key=lambda i: (results[i][0], -pairs[i][0], -pairs[i][1]))
    best = order[0]
    if results[best][0] == math.inf:
        raise RuntimeError("no tuning grid point converged")
    return TuningResult(best_lambda=pairs[best][0], best_gamma=pairs[best][1],
                        table=table, best_fit=results[best][1])
