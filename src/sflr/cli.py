"""Command-line interface: fit, predict, tune, simulate, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import model as model_mod
from .basis import make_basis
from .dataio import DataError, read_curve, read_dataset, write_csv, write_dataset
from .design import FunctionalDataset, build_design
from .metrics import classification_metrics, ise, pmse
from .model import SflrModel, beta_hat, classify, null_regions, predict_proba
from .simulate import (SCENARIOS, ScenarioSpec, add_observation_noise,
                       generate_predictors, generate_responses,
                       interval_count_rule, scenario_alpha, true_beta,
                       true_probabilities)
from .solver import THREAD_INVARIANT_UNKNOWNS, SolverConfig, fit
from .tuning import TuningGrid, tune

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NOCONV = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _at_least(kind, low=-math.inf, strict=False):
    """Argument type: a finite ``kind`` value no smaller than ``low``, or
    greater than ``low`` when ``strict``."""
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if (value is None or not math.isfinite(value) or value < low
                or (strict and value == low)):
            raise argparse.ArgumentTypeError(
                f"must be a finite {kind.__name__}{bound}, got {text!r}")
        return value

    return parse


_nonnegative = _at_least(float, 0.0)


def _float_list(text: str) -> list[float]:
    try:
        values = [_nonnegative(v) for v in text.split(",") if v.strip()]
    except argparse.ArgumentTypeError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"not a nonempty comma-separated list of finite numbers >= 0: "
            f"{text!r}")
    return values


def _intervals_arg(text: str):
    if text == "auto":
        return "auto"
    if text.strip().isdecimal() and int(text) > 0:
        return int(text)
    raise argparse.ArgumentTypeError(
        f"--intervals must be a positive integer or 'auto', got {text!r}")


def _region_list(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            a, b = map(float, part.split(":"))
        except ValueError:
            a = b = math.nan
        if not 0.0 <= a <= b < math.inf:
            raise argparse.ArgumentTypeError(
                f"bad interval {part!r}; expected start:end with "
                "0 <= start <= end")
        out.append((a, b))
    if not out:
        raise argparse.ArgumentTypeError(f"no start:end interval in {text!r}")
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="sflr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to labeled data")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", type=_nonnegative, required=True)
    p.add_argument("--gamma", type=_nonnegative, required=True)
    p.add_argument("--degree", type=_at_least(int, 1), default=3)
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
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--degree", type=_at_least(int, 1), default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--intervals", type=_intervals_arg, default="auto")
    p.add_argument("--out", default="scores.csv")

    p = sub.add_parser("simulate", help="generate scenario data files")
    p.add_argument("--scenario", required=True,
                   choices=[name.replace("_", "-") for name in SCENARIOS])
    p.add_argument("--n-train", type=_at_least(int, 1), required=True)
    p.add_argument("--n-test", type=_at_least(int, 1), default=1000)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--snr", type=_at_least(float, 0.0, strict=True),
                   default=None)
    p.add_argument("--grid-size", type=_at_least(int, 2), default=101)
    p.add_argument("--out-prefix", default="sim")

    p = sub.add_parser("evaluate", help="score a model on labeled test data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--true-beta", default=None,
                   help="scenario name (one-null/three-null/spectra) or a "
                        "CSV curve file with columns t,beta")
    p.add_argument("--true-alpha", type=_at_least(float), default=None,
                   help="default: the alpha= of the test file's header, or 0")
    p.add_argument("--null-regions", type=_region_list, default=None)
    p.add_argument("--out", default="metrics.json")
    return parser


def _check_flag_combinations(parser: _Parser, args) -> None:
    """Usage errors that depend on more than one flag."""
    if "m" in args and not 1 <= args.m <= args.degree - 1:
        parser.error(f"--m must be between 1 and --degree - 1 "
                     f"({args.degree - 1}), got {args.m}")
    if getattr(args, "criterion", None) == "cv" and args.folds < 2:
        parser.error(f"--folds must be at least 2 for --criterion cv, "
                     f"got {args.folds}")
    if args.command == "evaluate" and args.true_beta is None:
        # both flags only describe the true curve that --true-beta names
        for flag, value in (("--true-alpha", args.true_alpha),
                            ("--null-regions", args.null_regions)):
            if value is not None:
                parser.error(f"{flag} needs --true-beta")


def _labeled_basis(args):
    """The labeled --data set and its basis."""
    data = read_dataset(args.data)
    if data.labels is None:
        raise DataError(f"{args.command} requires labeled data")
    if data.n_samples < 2:
        raise DataError(f"{args.command} needs at least 2 curves, "
                        f"got {data.n_samples}")
    M = (interval_count_rule(data.n_points) if args.intervals == "auto"
         else args.intervals)
    unknowns = M + args.degree + 1  # the Newton system's size; see sflr.solver
    if unknowns > THREAD_INVARIANT_UNKNOWNS:
        print(f"note: {unknowns} unknowns exceed {THREAD_INVARIANT_UNKNOWNS}; "
              "results may differ in their last bits between OpenBLAS thread "
              "counts", file=sys.stderr)
    return data, make_basis(float(data.grid[-1]), args.degree, M)


def _settings(model: SflrModel) -> str:
    """The settings line that fit and predict write above their tables."""
    return (f"lambda={model.fit.lam} gamma={model.fit.gamma} "
            f"degree={model.basis.degree} m={model.m} "
            f"intervals={model.basis.interior_interval_count}")


def _cmd_fit(args) -> int:
    data, basis = _labeled_basis(args)
    design = build_design(data, basis, args.m)
    # the descent reads only U: drop the curves before it runs
    grid, labels = data.grid, data.labels.astype(float)
    del data
    config = SolverConfig(lam=args.lam, gamma=args.gamma, m=args.m)
    try:
        result = fit(design.U, labels, basis, design, config)
    except np.linalg.LinAlgError as exc:  # e.g. penalties that overflow
        print(f"no convergence: {exc}; no model written", file=sys.stderr)
        return EXIT_NOCONV
    model = SflrModel(basis=basis, fit=result, training_grid=grid,
                      m=args.m)
    model_mod.save(model, args.out)
    # the fitted curve on 1001 points, with each point's null flag
    curve_path = Path(args.out).with_suffix("").as_posix() + "_beta.csv"
    ts = np.linspace(0.0, basis.domain_end, 1001)
    regions = null_regions(model)
    write_csv(curve_path, ["t", "beta_hat", "is_null"],
              ((t, v, int(any(a <= t <= b for a, b in regions)))
               for t, v in zip(ts.tolist(), beta_hat(model, ts).tolist())),
              _settings(model))
    print(f"model written to {args.out}; curve to {curve_path}; "
          f"converged={result.converged} iterations={result.iterations}")
    return EXIT_OK if result.converged else EXIT_NOCONV


def _predict(model: SflrModel, data: FunctionalDataset) -> np.ndarray:
    """predict_proba, with an out-of-domain grid reported as a data error."""
    try:
        return predict_proba(model, data)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _cmd_predict(args) -> int:
    model = model_mod.load(args.model)
    data = read_dataset(args.data)
    probs = _predict(model, data)
    write_csv(args.out, ["probability", "class"],
              zip(probs.tolist(), classify(probs).tolist()), _settings(model))
    print(f"predictions written to {args.out}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    data, basis = _labeled_basis(args)
    grid = TuningGrid(lambdas=tuple(args.lambda_grid),
                      gammas=tuple(args.gamma_grid),
                      criterion=args.criterion, folds=args.folds,
                      seed=args.seed)
    config = SolverConfig(m=args.m)
    try:
        result = tune(data, basis, grid, config)
    except RuntimeError as exc:  # every grid point failed
        print(f"no convergence: {exc}; no table written", file=sys.stderr)
        return EXIT_NOCONV
    columns = ["lambda", "gamma", "criterion", "score", "converged"]
    write_csv(args.out, columns,
              ([row[c] for c in columns] for row in result.table),
              f"criterion={args.criterion} seed={args.seed} "
              f"folds={args.folds} intervals={basis.interior_interval_count}\n"
              f"best_lambda={result.best_lambda!r} "
              f"best_gamma={result.best_gamma!r}")
    print(f"best lambda={result.best_lambda!r} gamma={result.best_gamma!r}; "
          f"table written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = args.scenario.replace("-", "_")
    spec = ScenarioSpec(scenario=scenario, n_train=args.n_train,
                        n_test=args.n_test, grid_size=args.grid_size,
                        snr=args.snr, seed=args.seed)
    rng = np.random.default_rng(spec.seed)
    beta, _ = true_beta(scenario)
    for name, n in (("train", spec.n_train), ("test", spec.n_test)):
        clean = generate_predictors(spec, n, rng)
        if name == "train":
            # one intercept for both files, as run_replicate labels them
            alpha = scenario_alpha(scenario, clean)
        comment = (f"scenario={args.scenario} seed={args.seed} "
                   f"snr={args.snr} n_train={args.n_train} "
                   f"n_test={args.n_test} alpha={alpha!r}")
        y, _ = generate_responses(clean, beta, alpha, rng)
        values = clean.values
        if spec.snr is not None:
            values = add_observation_noise(values, spec.snr, rng)
        labeled = FunctionalDataset(clean.grid, values, y)
        write_dataset(f"{args.out_prefix}_{name}.csv", labeled, comment)

    ts = spec.grid
    write_csv(f"{args.out_prefix}_beta.csv", ["t", "beta"],
              zip(ts.tolist(), np.asarray(beta(ts)).tolist()), comment)
    print(f"wrote {args.out_prefix}_train.csv, {args.out_prefix}_test.csv, "
          f"{args.out_prefix}_beta.csv (seed={args.seed})")
    return EXIT_OK


def _recorded_alpha(path) -> float:
    """The ``alpha=`` that ``simulate`` records in a dataset file's leading
    '#' lines, or 0.0 when there is none."""
    with open(path, encoding="utf-8") as fh:
        head = itertools.takewhile(lambda ln: ln.lstrip().startswith("#"), fh)
        fields = [field for line in head for field in line.split()
                  if field.startswith("alpha=")]
    if not fields:
        return 0.0
    try:
        return _at_least(float)(fields[0].removeprefix("alpha="))
    except argparse.ArgumentTypeError as exc:
        raise DataError(f"{path}: header field {fields[0]}: {exc}") from None


def _cmd_evaluate(args) -> int:
    model = model_mod.load(args.model)
    test = read_dataset(args.test)
    if test.labels is None:
        raise DataError("evaluate requires labeled test data")
    probs = _predict(model, test)
    report = classification_metrics(test.labels, classify(probs))

    if args.true_beta is not None:
        name = args.true_beta.replace("-", "_")
        reach = max(test.grid[-1], model.basis.domain_end)
        if name in SCENARIOS:
            beta, nulls = true_beta(name)
            if reach > 1.0:
                raise DataError(
                    f"--true-beta {args.true_beta} is defined on [0, 1], but "
                    f"the test grid and the model domain reach {reach:g}")
        else:
            ts, values = read_curve(args.true_beta)
            # np.interp would extend the curve as a constant past its ends
            if ts[0] > 0.0 or ts[-1] < reach:
                raise DataError(
                    f"--true-beta {args.true_beta} covers "
                    f"[{ts[0]:g}, {ts[-1]:g}], but the test grid and the "
                    f"model domain span [0, {reach:g}]")
            beta = functools.partial(np.interp, xp=ts, fp=values)
            nulls = []
        if args.null_regions is not None:
            nulls = args.null_regions
        T = model.basis.domain_end
        if any(b > T for _, b in nulls):
            raise DataError(f"null regions {nulls} reach past the model's "
                            f"domain [0, {T:g}]")
        alpha = (_recorded_alpha(args.test) if args.true_alpha is None
                 else args.true_alpha)
        report.pmse = pmse(true_probabilities(test, beta, alpha), probs)
        if nulls:
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
        _check_flag_combinations(parser, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
