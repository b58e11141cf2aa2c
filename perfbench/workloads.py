"""The benchmark's three workloads.

Each workload makes the inputs of ``POOL`` datasets from the workload seed
in ``setup``; ``op(d)`` runs dataset ``d`` and returns an ``Outcome``: a
comparable signature of everything the op produced, the held-out quality
rows of the estimator, and the problems the op's own checks found. Which
op runs which dataset, and which ops must repeat an earlier one, is
decided in ``run.measure``.

sflr functions are looked up on their modules at call time, so the traced
run's wrappers are the ones called.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

POOL = 120


@dataclass
class Outcome:
    signature: object
    quality: list[dict]
    problems: list[str] = field(default_factory=list)


def data_seed(seed: int, d: int) -> int:
    """A 32-bit seed for dataset ``d``, mixed from the workload seed."""
    return int(np.random.SeedSequence([seed, d]).generate_state(1)[0])


RATES = ("mcr", "sensitivity", "specificity")


def _quality_problems(rows) -> list[str]:
    """Held-out rates that are missing or outside [0, 1] are wrong outputs.

    Whether the estimator beats chance is checked over a run's quality
    datasets (``run.chance_problem``), not per op: on weak-signal one_null
    data the default BIC grid sometimes picks a fit shrunk to nearly one
    class, whose mcr is the share of the other class and may exceed 0.5.
    """
    return [f"held-out {k} {r[k]!r} is not a rate" for r in rows for k in RATES
            if r[k] is None or not 0.0 <= r[k] <= 1.0]


class ReplicateOneNull:
    """The paper's simulation study: ``replicate_experiment`` on the
    acceptance-fixture configuration, a few replicates per op."""

    name = "replicate_one_null"
    REPLICATES = 2

    def setup(self, sflr, seed: int, workdir: str) -> None:
        self.simulate = sflr.simulate
        self.grid = sflr.simulate.default_tuning_grid("one_null", 1000)
        self.config = sflr.solver.SolverConfig(max_iterations=300)
        self.specs = [sflr.simulate.ScenarioSpec(
            "one_null", n_train=1000, n_test=1000, grid_size=101,
            seed=data_seed(seed, d)) for d in range(POOL)]

    def op(self, d: int) -> Outcome:
        res = self.simulate.replicate_experiment(
            self.specs[d], self.grid, self.REPLICATES, self.config)
        problems = _quality_problems(res.rows)
        if res.n_failed:
            problems.append(f"{res.n_failed} replicates failed")
        return Outcome(signature=res.rows, quality=res.rows, problems=problems)


class TuneCvThreeNull:
    """5-fold CV over the default three_null grid, a refit at the chosen
    pair and a prediction of 1000 held-out curves. The op simulates its
    dataset first (about 1% of its time), as ``replicate_experiment`` does,
    so the run holds one dataset in memory at a time."""

    name = "tune_cv_three_null"
    N_TRAIN, N_TEST = 450, 1000

    def setup(self, sflr, seed: int, workdir: str) -> None:
        sim = sflr.simulate
        self.sflr = sflr
        self.grid = sim.default_tuning_grid("three_null", self.N_TRAIN,
                                            criterion="cv")
        self.config = sflr.solver.SolverConfig(max_iterations=300)
        self.beta, self.nulls = sim.true_beta("three_null")
        self.basis = sflr.basis.make_basis(1.0, 3, sim.interval_count_rule(101))
        self.specs = [sim.ScenarioSpec("three_null", n_train=self.N_TRAIN,
                                       n_test=self.N_TEST, seed=data_seed(seed, d))
                      for d in range(POOL)]

    def op(self, d: int) -> Outcome:
        s = self.sflr
        spec = self.specs[d]
        rng = np.random.default_rng(spec.seed)
        X = s.simulate.generate_predictors(spec, self.N_TRAIN, rng)
        y, _ = s.simulate.generate_responses(X, self.beta, 0.0, rng)
        X_test = s.simulate.generate_predictors(spec, self.N_TEST, rng)
        y_test, _ = s.simulate.generate_responses(X_test, self.beta, 0.0, rng)
        train = s.design.FunctionalDataset(X.grid, X.values, y)

        tuned = s.tuning.tune(train, self.basis, self.grid, self.config)
        design = s.design.build_design(train, self.basis, self.config.m)
        cfg = replace(self.config, lam=tuned.best_lambda, gamma=tuned.best_gamma)
        res = s.solver.fit(design.U, y.astype(np.float64), self.basis, design,
                           cfg)
        model = s.model.SflrModel(basis=self.basis, fit=res,
                                  training_grid=train.grid, m=self.config.m)
        p = s.model.predict_proba(model, X_test)
        cm = s.metrics.classification_metrics(y_test, s.model.classify(p))
        ise0, ise1 = s.metrics.ise(lambda t: s.model.beta_hat(model, t),
                                   self.beta, self.nulls, 1.0)
        quality = [{"mcr": cm.mcr, "sensitivity": cm.sensitivity,
                    "specificity": cm.specificity, "ise0": ise0, "ise1": ise1}]
        signature = (tuned.best_lambda, tuned.best_gamma, res.alpha,
                     res.b.tobytes(), res.null_mask.tobytes(), p.tobytes())
        problems = _quality_problems(quality)
        if (tuned.best_lambda not in self.grid.lambdas
                or tuned.best_gamma not in self.grid.gammas):
            problems.append("chosen pair is not on the grid")
        return Outcome(signature=signature, quality=quality, problems=problems)


class CliRoundtrip:
    """``sflr.cli.main`` in process: simulate, fit at fixed (lambda, gamma)
    with 100 intervals, predict, evaluate against the true curve."""

    name = "cli_roundtrip"

    def setup(self, sflr, seed: int, workdir: str) -> None:
        self.cli = sflr.cli
        self.workdir = workdir
        self.seeds = [data_seed(seed, d) for d in range(POOL)]

    def commands(self, d: int) -> list[list[str]]:
        # one file set, overwritten by every op
        p = os.path.join(self.workdir, "sim")
        model = p + "_model.json"
        return [
            ["simulate", "--scenario", "one-null", "--n-train", "2000",
             "--n-test", "2000", "--grid-size", "201",
             "--seed", str(self.seeds[d]), "--out-prefix", p],
            ["fit", "--data", p + "_train.csv", "--lambda", "108.8",
             "--gamma", "3e-4", "--intervals", "100", "--out", model],
            ["predict", "--model", model, "--data", p + "_test.csv",
             "--out", p + "_pred.csv"],
            ["evaluate", "--model", model, "--test", p + "_test.csv",
             "--true-beta", "one-null", "--out", p + "_metrics.json"],
        ]

    def op(self, d: int) -> Outcome:
        metrics_path = self.commands(d)[3][-1]
        if os.path.exists(metrics_path):
            os.remove(metrics_path)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands(d):
                codes.append(self.cli.main(argv))
                # fit exits 3 when the solver reports non-convergence, after
                # writing the model; that is a documented outcome, not a
                # failure, and predict/evaluate still run on the model
                if codes[-1] not in ((0, 3) if argv[0] == "fit" else (0,)):
                    return Outcome(signature=None, quality=[], problems=[
                        f"sflr {argv[0]} exited with {codes[-1]}"])
        with open(metrics_path) as fh:
            text = fh.read()
        quality = [json.loads(text)]
        return Outcome(signature=(codes, text), quality=quality,
                       problems=_quality_problems(quality))


WORKLOADS = {w.name: w for w in (ReplicateOneNull, TuneCvThreeNull, CliRoundtrip)}
