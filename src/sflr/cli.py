"""Command-line interface: fit, predict, tune, simulate, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import model as model_mod
from .basis import make_basis
from .dataio import DataError, read_dataset, write_dataset
from .design import FunctionalDataset, build_design
from .metrics import MetricsReport, classification_metrics, ise, pmse
from .model import SflrModel, beta_hat, classify, null_regions, predict_proba
from .simulate import (ScenarioSpec, _add_observation_noise,
                       generate_predictors, generate_responses,
                       interval_count_rule, true_beta)
from .solver import SolverConfig, fit
from .tuning import TuningGrid, score_table_csv, tune

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NOCONV = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: "
                                         f"{text!r}") from None


def _intervals_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--intervals must be an integer or 'auto', got {text!r}") from None


def _region_list(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            a, b = part.split(":")
            out.append((float(a), float(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad interval {part!r}; expected start:end") from None
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="sflr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to labeled data")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--intervals", type=_intervals_arg, default="auto")
    p.add_argument("--out", default="model.json")

    p = sub.add_parser("predict", help="predict probabilities and classes")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tune", help="grid-search lambda and gamma")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_float_list,
                   required=True)
    p.add_argument("--gamma-grid", dest="gamma_grid", type=_float_list,
                   required=True)
    p.add_argument("--criterion", choices=("bic", "aic", "cv"), default="bic")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--intervals", type=_intervals_arg, default="auto")
    p.add_argument("--out", default="scores.csv")

    p = sub.add_parser("simulate", help="generate scenario data files")
    p.add_argument("--scenario", required=True,
                   choices=("one-null", "three-null", "spectra"))
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--grid-size", type=int, default=101)
    p.add_argument("--out-prefix", default="sim")

    p = sub.add_parser("evaluate", help="score a model on labeled test data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--true-beta", default=None,
                   help="scenario name (one-null/three-null/spectra) or a "
                        "CSV curve file with columns t,beta")
    p.add_argument("--true-alpha", type=float, default=0.0)
    p.add_argument("--null-regions", type=_region_list, default=None)
    p.add_argument("--out", default="metrics.json")
    return parser


def _resolve_intervals(intervals, n_points: int) -> int:
    return interval_count_rule(n_points) if intervals == "auto" else intervals


def _write_beta_curve(path, model: SflrModel, n_points: int = 1001,
                      comment: str | None = None) -> None:
    ts = np.linspace(model.basis.domain_start, model.basis.domain_end, n_points)
    vals = beta_hat(model, ts)
    regions = null_regions(model)
    lines = []
    if comment:
        lines.extend(f"# {ln}" for ln in comment.splitlines())
    lines.append("t,beta_hat,is_null")
    for t, v in zip(ts, vals):
        is_null = any(a <= t <= b for a, b in regions)
        lines.append(f"{float(t)!r},{float(v)!r},{int(is_null)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_fit(args) -> int:
    data = read_dataset(args.data)
    if data.labels is None:
        raise DataError("fit requires labeled data")
    M = _resolve_intervals(args.intervals, data.n_points)
    basis = make_basis(float(data.grid[-1]), args.degree, M)
    design = build_design(data, basis, args.m)
    config = SolverConfig(lam=args.lam, gamma=args.gamma, m=args.m)
    result = fit(design.U, data.labels.astype(float), basis, design, config)
    model = SflrModel(basis=basis, fit=result, training_grid=data.grid,
                      m=args.m)
    model_mod.save(model, args.out)
    curve_path = Path(args.out).with_suffix("").as_posix() + "_beta.csv"
    _write_beta_curve(curve_path, model,
                      comment=f"lambda={args.lam} gamma={args.gamma} "
                              f"degree={args.degree} m={args.m} intervals={M}")
    print(f"model written to {args.out}; curve to {curve_path}; "
          f"converged={result.converged} iterations={result.iterations}")
    return EXIT_OK if result.converged else EXIT_NOCONV


def _cmd_predict(args) -> int:
    model = model_mod.load(args.model)
    data = read_dataset(args.data)
    probs = predict_proba(model, data)
    classes = classify(probs)
    lines = [f"# model={args.model} data={args.data}", "probability,class"]
    lines += [f"{float(p)!r},{int(c)}" for p, c in zip(probs, classes)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"predictions written to {args.out}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    data = read_dataset(args.data)
    if data.labels is None:
        raise DataError("tune requires labeled data")
    M = _resolve_intervals(args.intervals, data.n_points)
    basis = make_basis(float(data.grid[-1]), args.degree, M)
    grid = TuningGrid(lambdas=tuple(args.lambda_grid),
                      gammas=tuple(args.gamma_grid),
                      criterion=args.criterion, folds=args.folds,
                      seed=args.seed)
    config = SolverConfig(m=args.m)
    result = tune(data, basis, grid, config)
    header = (f"# criterion={args.criterion} seed={args.seed} "
              f"folds={args.folds} intervals={M}\n"
              f"# best_lambda={result.best_lambda!r} "
              f"best_gamma={result.best_gamma!r}\n")
    Path(args.out).write_text(header + score_table_csv(result))
    print(f"best lambda={result.best_lambda!r} gamma={result.best_gamma!r}; "
          f"table written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = args.scenario.replace("-", "_")
    spec = ScenarioSpec(scenario=scenario, n_train=args.n_train,
                        n_test=args.n_test, grid_size=args.grid_size,
                        snr=args.snr, seed=args.seed)
    rng = np.random.default_rng(spec.seed)
    beta, nulls = true_beta(scenario)
    comment = (f"scenario={args.scenario} seed={args.seed} snr={args.snr} "
               f"n_train={args.n_train} n_test={args.n_test}")

    clean_spec = spec if spec.snr is None else dc_replace(spec, snr=None)
    for name, n in (("train", spec.n_train), ("test", spec.n_test)):
        clean = generate_predictors(clean_spec, n, rng)
        alpha = spec.alpha_true
        if scenario == "spectra":
            from .simulate import calibrate_alpha
            alpha = calibrate_alpha(clean, beta)
        y, _ = generate_responses(clean, beta, alpha, rng)
        values = clean.values
        if spec.snr is not None:
            values = _add_observation_noise(values, spec.snr, rng)
        labeled = FunctionalDataset(clean.grid, values, y)
        write_dataset(f"{args.out_prefix}_{name}.csv", labeled, comment)

    ts = spec.grid
    lines = [f"# {comment}", "t,beta"]
    lines += [f"{float(t)!r},{float(v)!r}"
              for t, v in zip(ts, np.asarray(beta(ts)))]
    Path(f"{args.out_prefix}_beta.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out_prefix}_train.csv, {args.out_prefix}_test.csv, "
          f"{args.out_prefix}_beta.csv (seed={args.seed})")
    return EXIT_OK


def _load_beta_curve(path):
    rows = [ln for ln in Path(path).read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]
    body = rows[1:] if rows and rows[0].startswith("t") else rows
    pts = np.array([[float(c) for c in ln.split(",")[:2]] for ln in body])

    def beta(t):
        return np.interp(np.asarray(t, dtype=float), pts[:, 0], pts[:, 1])

    return beta


def _cmd_evaluate(args) -> int:
    model = model_mod.load(args.model)
    test = read_dataset(args.test)
    if test.labels is None:
        raise DataError("evaluate requires labeled test data")
    probs = predict_proba(model, test)
    cm = classification_metrics(test.labels, classify(probs))
    report = MetricsReport(mcr=cm.mcr, sensitivity=cm.sensitivity,
                           specificity=cm.specificity, fdr=cm.fdr,
                           miss_rate=cm.miss_rate, tp=cm.tp, fp=cm.fp,
                           tn=cm.tn, fn=cm.fn)

    if args.true_beta is not None:
        name = args.true_beta.replace("-", "_")
        if name in ("one_null", "three_null", "spectra"):
            beta, nulls = true_beta(name)
        else:
            beta = _load_beta_curve(args.true_beta)
            nulls = args.null_regions or []
        if args.null_regions is not None:
            nulls = args.null_regions
        _, p_true = generate_responses(test, beta, args.true_alpha, 0)
        report.pmse = pmse(p_true, probs)
        if nulls:
            T = model.basis.domain_end
            report.ise0, report.ise1 = ise(lambda t: beta_hat(model, t),
                                           beta, nulls, T)
    Path(args.out).write_text(report.to_json() + "\n")
    print(f"metrics written to {args.out}")
    return EXIT_OK


_COMMANDS = {"fit": _cmd_fit, "predict": _cmd_predict, "tune": _cmd_tune,
             "simulate": _cmd_simulate, "evaluate": _cmd_evaluate}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
