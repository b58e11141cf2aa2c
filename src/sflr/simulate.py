"""Simulation scenarios: locally sparse coefficient functions, spline-built
predictors, spectra-like curves, Bernoulli responses, and the replication
harness with median summaries."""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .basis import eval_basis_many, make_basis
from .design import FunctionalDataset, build_design, trapezoid_weights
from .metrics import classification_metrics, complement_intervals, ise, pmse
from .model import SflrModel, beta_hat, classify, null_regions, predict_proba
from .solver import SolverConfig, _sigmoid, fit
from .tuning import TuningGrid, tune

# Each bundled scenario's beta: closed support pieces of [0, 1], each with its
# formula. beta is zero off them: the designed null regions are the rest.
_BETA_PIECES = {
    "one_null": (
        ((0.0, 0.3),
         lambda t: 15.0 * (1.0 - t) * np.sin(2.0 * np.pi * (t + 0.2))),
        ((0.7, 1.0), lambda t: 15.0 * t * np.sin(2.0 * np.pi * (t - 0.2))),
    ),
    "three_null": (
        ((0.05, 0.3),
         lambda t: 180.0 * (t - 0.5) * np.sin(4.0 * np.pi * (t + 0.7))),
        ((0.7, 0.95), lambda t: 45.0 * t * np.sin(4.0 * np.pi * (t + 0.3))),
    ),
    "spectra": (
        ((0.15, 0.35), lambda t: 8.0 * np.sin(np.pi * (t - 0.15) / 0.2)),
        ((0.55, 0.8), lambda t: -6.0 * np.sin(np.pi * (t - 0.55) / 0.25)),
    ),
}

SCENARIOS = tuple(_BETA_PIECES)
NULL_REGIONS = {scenario: complement_intervals([p for p, _ in pieces], 1.0)
                for scenario, pieces in _BETA_PIECES.items()}


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str
    n_train: int
    n_test: int = 1000
    grid_size: int = 101
    snr: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.n_train < 1 or self.n_test < 1 or self.grid_size < 2:
            raise ValueError("sizes must be positive")
        if self.snr is not None and not self.snr > 0:
            raise ValueError("snr must be positive")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size)


def _beta(scenario: str, t):
    """A bundled scenario's coefficient function at t in [0, 1]: each
    support piece's formula on that closed piece, zero elsewhere."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("t outside [0, 1]")
    out = np.zeros_like(t)
    for (a, b), formula in _BETA_PIECES[scenario]:
        on = (t >= a) & (t <= b)
        out[on] = formula(t[on])
    return float(out[0]) if scalar else out


def beta_one_null(t):
    """Coefficient function with a single null region."""
    return _beta("one_null", t)


def beta_three_null(t):
    """Coefficient function with an interior and two boundary null regions."""
    return _beta("three_null", t)


def beta_spectra(t):
    """Smooth two-bump coefficient function for the spectra-like scenario."""
    return _beta("spectra", t)


def true_beta(scenario: str):
    """(coefficient function, designed null intervals) for a scenario."""
    return functools.partial(_beta, scenario), NULL_REGIONS[scenario]


# two synthetic spectra-like means: sums of 6 Gaussian peaks each. They
# agree outside the two designed difference windows and differ inside.
_PEAKS_A = [(0.08, 0.02, 3.0), (0.25, 0.03, 5.0), (0.45, 0.05, 2.5),
            (0.62, 0.03, 4.0), (0.75, 0.04, 3.0), (0.92, 0.02, 2.0)]
_PEAKS_B = [(0.08, 0.02, 3.0), (0.25, 0.03, 6.5), (0.45, 0.05, 2.5),
            (0.62, 0.03, 2.8), (0.75, 0.04, 3.0), (0.92, 0.02, 2.0)]


def _gaussian_mix(t: np.ndarray, peaks) -> np.ndarray:
    out = np.zeros_like(t)
    for center, width, height in peaks:
        out += height * np.exp(-0.5 * ((t - center) / width) ** 2)
    return out


def spectra_means(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _gaussian_mix(grid, _PEAKS_A), _gaussian_mix(grid, _PEAKS_B)


def _generator_design(grid: np.ndarray) -> np.ndarray:
    """The one_null and three_null predictor generator basis on the grid:
    74 degree-4 (order-5) functions on 70 intervals, one column each."""
    return eval_basis_many(make_basis(1.0, 4, 70), grid)


def _spectra_class_means(n: int, grid: np.ndarray) -> np.ndarray:
    """Per-curve spectra means: the first n // 2 curves are class A."""
    mean_a, mean_b = spectra_means(grid)
    half = n // 2
    return np.vstack([np.tile(mean_a, (half, 1)),
                      np.tile(mean_b, (n - half, 1))])


def _observation_noise_sd(values: np.ndarray, snr: float) -> float:
    return float(values.std()) / math.sqrt(snr)


def add_observation_noise(values: np.ndarray, snr: float,
                          rng: np.random.Generator) -> np.ndarray:
    """``values`` plus iid Gaussian noise whose variance is the variance of
    ``values`` over ``snr``."""
    noise_sd = _observation_noise_sd(values, snr)
    return values + rng.normal(0.0, noise_sd, size=values.shape)


def posterior_mean_curves(scenario: str, noisy: np.ndarray, grid: np.ndarray,
                          noise_sd: float) -> np.ndarray:
    """E[X | X + e] for a scenario's Gaussian predictor prior, e iid N(0, sd^2).

    one_null and three_null curves are E c with c ~ N(0, I) and E the
    generator basis on the grid; spectra curves are their class mean plus
    N(0, I) at each grid point.
    """
    if not noise_sd > 0:
        raise ValueError("noise_sd must be positive")
    if scenario in ("one_null", "three_null"):
        E = _generator_design(grid)
        cov = E @ E.T
        mean = np.zeros_like(noisy)
    else:
        cov = np.eye(grid.size)
        mean = _spectra_class_means(noisy.shape[0], grid)
    # cov (cov + sd^2 I)^-1 through the eigenbasis: cov is singular for the
    # spline scenarios (rank 74 on 101 points)
    evals, Q = np.linalg.eigh(cov)
    evals = np.maximum(evals, 0.0)
    gain = (Q * (evals / (evals + noise_sd ** 2))) @ Q.T
    return mean + (noisy - mean) @ gain


def generate_predictors(spec: ScenarioSpec, n_samples: int | None = None,
                        rng: np.random.Generator | None = None) -> FunctionalDataset:
    """Clean, unlabeled curves for a scenario (n_train rows by default).

    Labels are drawn from these curves (``generate_responses``) and noise at
    ``spec.snr`` is added afterwards (``add_observation_noise``), so noise
    degrades estimation rather than inflating the signal.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n = spec.n_train if n_samples is None else int(n_samples)
    grid = spec.grid
    if spec.scenario == "spectra":
        values = (_spectra_class_means(n, grid)
                  + rng.standard_normal((n, grid.size)))
    else:
        E = _generator_design(grid)
        values = rng.standard_normal((n, E.shape[1])) @ E.T
    return FunctionalDataset(grid=grid, values=values)


def _linear_predictor(X: FunctionalDataset, beta, alpha: float) -> np.ndarray:
    """alpha plus the integral of beta against each curve, by the
    ``trapezoid_weights`` rule that ``compute_U`` integrates with: one
    matrix-vector product, with no N x G temporary."""
    return alpha + X.values @ (trapezoid_weights(X.grid) * beta(X.grid))


def true_probabilities(X: FunctionalDataset, beta, alpha: float) -> np.ndarray:
    """The model's response probabilities for given curves: the sigmoid
    of ``_linear_predictor``."""
    return _sigmoid(_linear_predictor(X, beta, alpha))


def generate_responses(X: FunctionalDataset, beta, alpha: float,
                       seed_or_rng) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli labels and their ``true_probabilities`` for given curves."""
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    p = true_probabilities(X, beta, alpha)
    labels = (rng.random(p.size) < p).astype(np.int64)
    return labels, p


def calibrate_alpha(X: FunctionalDataset, beta) -> float:
    """Bisect the intercept until the mean response probability is 1/2."""
    eta0 = _linear_predictor(X, beta, 0.0)

    def mean_p(alpha):
        return float(np.mean(_sigmoid(alpha + eta0)))

    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if mean_p(mid) < 0.5 else (lo, mid)
        if bracket == (lo, hi):  # a fixpoint: every later step repeats it
            break
        lo, hi = bracket
    return 0.5 * (lo + hi)


def scenario_alpha(scenario: str, train_clean: FunctionalDataset) -> float:
    """A scenario's true intercept, for its training and test labels: 0, or
    for spectra the ``calibrate_alpha`` of the clean training curves."""
    if scenario == "spectra":
        return calibrate_alpha(train_clean, beta_spectra)
    return 0.0


def interval_count_rule(n_points: int) -> int:
    """Knot-interval count: max(30, 10 * n^(2/9)), rounded up."""
    return max(30, math.ceil(10.0 * n_points ** (2.0 / 9.0)))


# Default tuning grids for the bundled scenarios, chosen by calibration on
# seeded replicates. The sparsity grid scales linearly with the training
# size: consistent null-region detection requires the sparsity level to grow
# with the sample size, otherwise the likelihood term eventually drowns the
# penalty and no subinterval is driven exactly to zero.
_DEFAULT_LAMBDA_PER_N = {"one_null": (0.0544, 0.0612, 0.068),
                         "three_null": (0.034, 0.0442, 0.0544),
                         "spectra": (0.034, 0.0442, 0.0544)}
_DEFAULT_GAMMAS = {"one_null": (3e-4, 3e-5),
                   "three_null": (1.5e-4, 1.5e-5),
                   "spectra": (1.5e-4, 1.5e-5)}


def default_tuning_grid(scenario: str, n_train: int,
                        criterion: str = "bic") -> TuningGrid:
    """Calibrated default (lambda, gamma) grid for a bundled scenario."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    lambdas = tuple(round(rate * n_train, 4)
                    for rate in _DEFAULT_LAMBDA_PER_N[scenario])
    return TuningGrid(lambdas=lambdas, gammas=_DEFAULT_GAMMAS[scenario],
                      criterion=criterion)


@dataclass
class ReplicationResult:
    rows: list[dict]
    medians: dict
    n_failed: int


_MEDIAN_KEYS = ("mcr", "sensitivity", "specificity", "fdr", "miss_rate",
                "ise0", "ise1", "pmse", "null_fraction", "bayes_mcr",
                "bayes_sensitivity", "bayes_specificity")


def _null_overlap_fraction(model: SflrModel, designed) -> float:
    """Length fraction of the designed null region flagged null by the fit."""
    total = sum(b - a for a, b in designed)
    got = 0.0
    for a, b in designed:
        for c, d in null_regions(model):
            got += max(0.0, min(b, d) - max(a, c))
    return got / total if total > 0 else float("nan")


def run_replicate(spec: ScenarioSpec, grid: TuningGrid, config: SolverConfig,
                  replicate: int) -> dict:
    """Simulate one train/test pair, tune, fit, and score every metric.

    The fit uses a cubic basis with ``interval_count_rule`` intervals.

    The row also carries the rates of the Bayes rule (``bayes_*``), which
    classifies the test curves the estimator is given with the true model:
    by their true probabilities when the curves are noiseless, and by the
    linear predictor of their posterior mean (``posterior_mean_curves``)
    when they are noisy. That predictor is Gaussian given the noisy curve,
    so its sign is the sign of the posterior probability minus 1/2. The
    rule's expected rates are the best any classifier can reach on such
    data; on one finite test set a classifier can beat it by chance.
    """
    rng = np.random.default_rng(spec.seed + replicate)
    beta, designed_nulls = true_beta(spec.scenario)

    ts = spec.grid
    train_clean = generate_predictors(spec, spec.n_train, rng)
    test_clean = generate_predictors(spec, spec.n_test, rng)
    alpha = scenario_alpha(spec.scenario, train_clean)
    # responses come from the clean signal; observation noise is drawn last
    # so seed-matched noisy and noiseless replicates share curves and labels
    y_train, _ = generate_responses(train_clean, beta, alpha, rng)
    y_test, p_test = generate_responses(test_clean, beta, alpha, rng)
    if y_train.min() == y_train.max():
        raise ValueError("degenerate replicate: single-class training labels")

    train_vals, test_vals = train_clean.values, test_clean.values
    if spec.snr is not None:
        train_vals = add_observation_noise(train_vals, spec.snr, rng)
        test_vals = add_observation_noise(test_vals, spec.snr, rng)
    test_X = FunctionalDataset(ts, test_vals)
    train = FunctionalDataset(ts, train_vals, y_train)
    basis = make_basis(1.0, 3, interval_count_rule(spec.grid_size))

    tuned = tune(train, basis, grid, config)
    lam, gam, res = tuned.best_lambda, tuned.best_gamma, tuned.best_fit
    if res is None:
        # CV scores held-out folds and keeps no fit on all training curves
        design = build_design(train, basis, config.m)
        cfg = replace(config, lam=lam, gamma=gam)
        res = fit(design.U, y_train.astype(np.float64), basis, design, cfg)

    model = SflrModel(basis=basis, fit=res, training_grid=ts,
                      m=config.m)
    p_hat = predict_proba(model, test_X)
    cm = classification_metrics(y_test, classify(p_hat))
    p_bayes = p_test
    if spec.snr is not None:
        seen = posterior_mean_curves(
            spec.scenario, test_vals, ts,
            _observation_noise_sd(test_clean.values, spec.snr))
        p_bayes = true_probabilities(FunctionalDataset(ts, seen), beta,
                                     alpha)
    oracle = classification_metrics(y_test, classify(p_bayes))
    ise0, ise1 = ise(lambda t: beta_hat(model, t), beta, designed_nulls, 1.0)
    return {
        "replicate": replicate, "mcr": cm.mcr, "sensitivity": cm.sensitivity,
        "specificity": cm.specificity, "fdr": cm.fdr,
        "miss_rate": cm.miss_rate, "ise0": ise0, "ise1": ise1,
        "pmse": pmse(p_test, p_hat), "lambda": lam, "gamma": gam,
        "converged": res.converged,
        "null_fraction": _null_overlap_fraction(model, designed_nulls),
        "bayes_mcr": oracle.mcr, "bayes_sensitivity": oracle.sensitivity,
        "bayes_specificity": oracle.specificity,
    }


def replicate_experiment(spec: ScenarioSpec, grid: TuningGrid,
                         n_replicates: int,
                         config: SolverConfig | None = None) -> ReplicationResult:
    """Run seeded replicates in order and summarize metric medians.

    Replicate r uses seed spec.seed + r; failed replicates are counted
    and excluded from the medians.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    cfg = config or SolverConfig()
    rows = []
    for r in range(n_replicates):
        try:
            rows.append(run_replicate(spec, grid, cfg, r))
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            warnings.warn(f"replicate {r} failed: {exc}", RuntimeWarning,
                          stacklevel=2)

    medians = {}
    for key in _MEDIAN_KEYS:
        vals = [row[key] for row in rows if row[key] is not None]
        medians[key] = float(np.median(vals)) if vals else None
    return ReplicationResult(rows=rows, medians=medians,
                             n_failed=n_replicates - len(rows))
