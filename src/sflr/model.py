"""Fitted-model surface: coefficient curve, prediction, null regions, JSON I/O."""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BSplineBasis, eval_basis_many, make_basis
from .dataio import DataError
from .design import FunctionalDataset, compute_U
from .solver import FitResult, clamped_probs


@dataclass(frozen=True)
class SflrModel:
    """Immutable fitted model: basis, fit result, training grid, penalty order."""

    basis: BSplineBasis
    fit: FitResult
    training_grid: np.ndarray
    m: int = 2


def beta_hat(model: SflrModel, t) -> float | np.ndarray:
    """Estimated coefficient function at t (scalar or array)."""
    scalar = np.isscalar(t)
    vals = eval_basis_many(model.basis, np.atleast_1d(t)) @ model.fit.b
    return float(vals[0]) if scalar else vals


def predict_proba(model: SflrModel, newdata: FunctionalDataset) -> np.ndarray:
    """Predicted class-1 probabilities for new curves on any in-domain grid."""
    U = compute_U(newdata, model.basis)
    return clamped_probs(model.fit.alpha + U @ model.fit.b)


def classify(probabilities, threshold: float = 0.5) -> np.ndarray:
    """Hard labels; ties at the threshold go to class 1."""
    return (np.asarray(probabilities) >= threshold).astype(np.int64)


def null_regions(model: SflrModel) -> list[tuple[float, float]]:
    """Maximal runs of null-flagged subintervals as [start, end] pairs."""
    breaks = model.basis.breakpoints
    # run j..k-1 starts at edge j and ends at edge k of the padded mask
    edges = np.flatnonzero(np.diff(np.concatenate([[False], model.fit.null_mask,
                                                   [False]])))
    return [(float(breaks[j]), float(breaks[k]))
            for j, k in zip(edges[::2], edges[1::2])]


def to_json(model: SflrModel) -> str:
    doc = {
        "domain": [0.0, model.basis.domain_end],
        "degree": model.basis.degree,
        "M": model.basis.interior_interval_count,
        "b": model.fit.b.tolist(),
        "alpha": model.fit.alpha,
        "null_mask": [bool(v) for v in model.fit.null_mask],
        "lambda": model.fit.lam,
        "gamma": model.fit.gamma,
        "m": model.m,
    }
    return json.dumps(doc, indent=2)


def save(model: SflrModel, path) -> None:
    Path(path).write_text(to_json(model))


_MODEL_KEYS = ("domain", "degree", "M", "b", "alpha", "null_mask", "lambda",
               "gamma", "m")


def _finite(value) -> bool:
    """True for a JSON number (not a boolean) that fits a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _model_float(doc: dict, key: str) -> float:
    if not _finite(doc[key]):
        raise DataError(f"model file {key!r} must be a finite number, "
                        f"got {doc[key]!r}")
    return float(doc[key])


def _model_count(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DataError(f"model file {key!r} must be an integer >= 1, "
                        f"got {value!r}")
    return value


def _model_list(doc: dict, key: str, size: int, valid, what: str) -> list:
    value = doc[key]
    if not (isinstance(value, list) and len(value) == size
            and all(map(valid, value))):
        raise DataError(f"model file {key!r} must be a list of {size} "
                        f"{what}")
    return value


def from_json(text: str) -> SflrModel:
    """Model from ``to_json`` text; a DataError names a missing key or the
    first field that is malformed or inconsistent with the others."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError("model file must hold a JSON object")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise DataError(f"model file has no {missing[0]!r} key")
    domain = _model_list(doc, "domain", 2, _finite, "finite numbers")
    if domain[0] != 0 or not domain[1] > 0:
        raise DataError(f"model file 'domain' {domain} is not an interval "
                        "[0, end] with end > 0 (the basis starts at 0)")
    degree, M = _model_count(doc, "degree"), _model_count(doc, "M")
    b = _model_list(doc, "b", M + degree, _finite, "finite numbers")
    null_mask = _model_list(doc, "null_mask", M,
                            lambda v: isinstance(v, bool), "booleans")
    fit = FitResult(b=np.array(b, dtype=np.float64),
                    alpha=_model_float(doc, "alpha"),
                    null_mask=np.array(null_mask, dtype=bool),
                    converged=True, lam=_model_float(doc, "lambda"),
                    gamma=_model_float(doc, "gamma"))
    m = _model_count(doc, "m")
    if m > degree - 1:
        raise DataError(f"model file 'm' must be a derivative order in "
                        f"[1, degree - 1] = [1, {degree - 1}], got {m}")
    basis = make_basis(float(domain[1]), degree, M)
    grid = np.array(domain, dtype=np.float64)
    return SflrModel(basis=basis, fit=fit, training_grid=grid, m=m)


def load(path) -> SflrModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"model file {path} is not UTF-8 text: byte "
                        f"{exc.start} is {exc.object[exc.start]:#04x}") from None
    return from_json(text)
