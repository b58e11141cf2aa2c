"""Evaluation criteria: confusion rates, PMSE, and split integrated squared error."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

Interval = tuple[float, float]

# Simpson points per piece of the ISE integrals (odd)
_ISE_POINTS = 2001


@dataclass
class MetricsReport:
    """All criteria for one fitted model; None marks an undefined rate or a
    criterion that was not computed."""

    mcr: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    fdr: float | None = None
    miss_rate: float | None = None
    pmse: float | None = None
    ise0: float | None = None
    ise1: float | None = None
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def classification_metrics(y_true, y_pred) -> MetricsReport:
    """Confusion counts and rates; zero-denominator rates come back as None,
    and so do ``pmse``, ``ise0`` and ``ise1``, which need the true model."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if not (np.isin(y_true, [0, 1]).all() and np.isin(y_pred, [0, 1]).all()):
        raise ValueError("labels must be 0 or 1")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return MetricsReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        mcr=_rate(fp + fn, tp + fp + tn + fn),
        sensitivity=_rate(tp, tp + fn),
        specificity=_rate(tn, tn + fp),
        fdr=_rate(fp, tp + fp),
        miss_rate=_rate(fn, tp + fn),
    )


def pmse(p_true, p_hat) -> float:
    """Mean squared difference between true and predicted probabilities."""
    p_true = np.asarray(p_true, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if p_true.shape != p_hat.shape:
        raise ValueError(f"length mismatch: {p_true.shape} vs {p_hat.shape}")
    return float(np.mean((p_true - p_hat) ** 2))


def _simpson(f, a: float, b: float) -> float:
    x = np.linspace(a, b, _ISE_POINTS)
    h = (x[-1] - x[0]) / (_ISE_POINTS - 1)
    w = np.ones(_ISE_POINTS)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.asarray(f(x)) @ (w * h / 3.0))


def complement_intervals(intervals: list[Interval], T: float) -> list[Interval]:
    """Complement of a union of intervals inside [0, T]."""
    merged = sorted((float(a), float(b)) for a, b in intervals)
    out: list[Interval] = []
    cursor = 0.0
    for a, b in merged:
        if not 0.0 <= a <= b <= T:
            raise ValueError(f"malformed interval ({a}, {b}) for domain [0, {T}]")
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < T:
        out.append((cursor, T))
    return out


def ise(beta_hat, beta_true, null_region: list[Interval],
        T: float) -> tuple[float | None, float | None]:
    """Length-normalized integrated squared errors over the null region and
    its complement, by Simpson's rule; None when a region has zero length."""

    def sq_err(x):
        return (np.asarray(beta_hat(x)) - np.asarray(beta_true(x))) ** 2

    def component(pieces: list[Interval]) -> float | None:
        length = sum(b - a for a, b in pieces)
        if length <= 0:
            return None
        total = sum(_simpson(sq_err, a, b) for a, b in pieces if b > a)
        return total / length

    # the union of the null intervals: overlaps count once
    nulls = complement_intervals(complement_intervals(null_region, T), T)
    return component(nulls), component(complement_intervals(nulls, T))
