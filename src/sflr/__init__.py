"""Locally sparse functional logistic regression.

Estimates a smooth coefficient function that is exactly zero on data-driven
subregions, via a B-spline penalized likelihood with a roughness penalty and
an L1 sparsity penalty optimized by LQA Newton-Raphson.
"""
from .basis import BSplineBasis, eval_basis, eval_basis_many, gram_block, make_basis
from .design import (DesignMatrices, FunctionalDataset, build_design,
                     compute_U, compute_V, compute_W_blocks)
from .metrics import MetricsReport, classification_metrics, ise, pmse
from .model import (SflrModel, beta_hat, classify, null_regions,
                    predict_proba)
from .solver import (FitResult, SolverConfig, fit, fit_initial,
                     log_likelihood, lqa_weight_matrix, newton_step)
from .tuning import TuningGrid, TuningResult, score_ic, tune
from .simulate import (ScenarioSpec, beta_one_null, beta_three_null,
                       beta_spectra, default_tuning_grid, generate_predictors,
                       generate_responses, interval_count_rule,
                       replicate_experiment, true_beta)

__version__ = "0.1.0"

__all__ = [
    "BSplineBasis", "DesignMatrices", "FitResult",
    "FunctionalDataset", "MetricsReport", "ScenarioSpec", "SflrModel",
    "SolverConfig", "TuningGrid", "TuningResult", "beta_hat",
    "beta_one_null", "beta_spectra", "beta_three_null", "build_design",
    "classification_metrics", "classify", "compute_U", "compute_V",
    "compute_W_blocks", "default_tuning_grid", "eval_basis",
    "eval_basis_many", "fit",
    "fit_initial", "generate_predictors", "generate_responses",
    "gram_block", "interval_count_rule", "ise", "log_likelihood",
    "lqa_weight_matrix", "make_basis", "newton_step", "null_regions",
    "pmse", "predict_proba", "replicate_experiment", "score_ic",
    "true_beta", "tune",
]
