"""End-to-end CLI contract: subcommands, artifacts, exit codes."""
import contextlib
import io
import itertools
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflr import cli
from sflr.cli import main
from sflr.dataio import read_dataset, write_dataset
from sflr.design import FunctionalDataset
from sflr.simulate import (SCENARIOS, ScenarioSpec, add_observation_noise,
                           beta_spectra, calibrate_alpha, generate_predictors,
                           generate_responses, scenario_alpha, true_beta)
from sflr.tuning import TuningResult


def _run(args):
    return main(args)


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    prefix = str(root / "one")
    code = _run(["simulate", "--scenario", "one-null", "--n-train", "150",
                 "--n-test", "100", "--seed", "9", "--out-prefix", prefix])
    assert code == 0
    return root, prefix


def test_simulate_artifacts(sim_files):
    root, prefix = sim_files
    train = read_dataset(prefix + "_train.csv")
    test = read_dataset(prefix + "_test.csv")
    assert train.n_samples == 150 and test.n_samples == 100
    assert train.labels is not None
    beta_lines = (root / "one_beta.csv").read_text().splitlines()
    assert beta_lines[0].startswith("#") and "seed=9" in beta_lines[0]
    assert beta_lines[1] == "t,beta"


def test_simulate_seed_determinism(sim_files, tmp_path):
    _, prefix = sim_files
    again = str(tmp_path / "again")
    assert _run(["simulate", "--scenario", "one-null", "--n-train", "150",
                 "--n-test", "100", "--seed", "9", "--out-prefix", again]) == 0
    a = read_dataset(prefix + "_train.csv")
    b = read_dataset(again + "_train.csv")
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_simulate_snr_adds_noise_to_clean_curves(sim_files, tmp_path):
    _, prefix = sim_files
    noisy_prefix = str(tmp_path / "noisy")
    assert _run(["simulate", "--scenario", "one-null", "--n-train", "150",
                 "--n-test", "100", "--seed", "9", "--snr", "1",
                 "--out-prefix", noisy_prefix]) == 0
    clean = read_dataset(prefix + "_train.csv")
    noisy = read_dataset(noisy_prefix + "_train.csv")
    # labels come from the clean curves, drawn before the noise
    np.testing.assert_array_equal(noisy.labels, clean.labels)
    noise_sd = (noisy.values - clean.values).std()
    assert noise_sd == pytest.approx(clean.values.std(), rel=0.05)


def test_simulate_spectra_files_share_one_recorded_intercept(tmp_path):
    prefix = str(tmp_path / "spec")
    assert _run(["simulate", "--scenario", "spectra", "--n-train", "60",
                 "--n-test", "40", "--seed", "7", "--out-prefix", prefix]) == 0
    alphas = []
    for name in ("train", "test", "beta"):
        with open(f"{prefix}_{name}.csv") as fh:
            first = fh.readline()
        assert first.startswith("# ") and first.count(" alpha=") == 1
        alphas.append(first.split(" alpha=")[1].split()[0])
    assert alphas[0] == alphas[1] == alphas[2]
    # calibrated on the clean training curves, as run_replicate does
    train = read_dataset(prefix + "_train.csv")
    assert float(alphas[0]) == calibrate_alpha(train, beta_spectra)


@pytest.mark.parametrize("snr", [None, "1"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_simulate_composes_the_public_steps_in_order(tmp_path, scenario, snr):
    # per file, train first: generate_predictors, scenario_alpha (train
    # only), generate_responses, add_observation_noise; all on one stream
    seed, sizes = 4, {"train": 40, "test": 30}
    prefix = str(tmp_path / "sim")
    argv = ["simulate", "--scenario", scenario.replace("_", "-"),
            "--n-train", str(sizes["train"]), "--n-test", str(sizes["test"]),
            "--seed", str(seed), "--out-prefix", prefix]
    assert _run(argv + ([] if snr is None else ["--snr", snr])) == 0
    spec = ScenarioSpec(scenario, n_train=sizes["train"],
                        n_test=sizes["test"], seed=seed)
    beta, _ = true_beta(scenario)
    rng = np.random.default_rng(seed)
    for name, n in sizes.items():
        clean = generate_predictors(spec, n, rng)
        if name == "train":
            alpha = scenario_alpha(scenario, clean)
        labels, _ = generate_responses(clean, beta, alpha, rng)
        values = clean.values
        if snr is not None:
            values = add_observation_noise(values, float(snr), rng)
        written = read_dataset(f"{prefix}_{name}.csv")
        assert written.values.shape == values.shape
        assert written.values.tobytes() == values.tobytes(), name
        assert written.labels.tobytes() == labels.tobytes(), name


@pytest.fixture(scope="module")
def spectra_fit(tmp_path_factory):
    """Spectra files from simulate, a model fitted to them, and the
    intercept the files record."""
    root = tmp_path_factory.mktemp("spectra")
    prefix = str(root / "spec")
    assert _run(["simulate", "--scenario", "spectra", "--n-train", "100",
                 "--n-test", "100", "--seed", "7",
                 "--out-prefix", prefix]) == 0
    model = str(root / "model.json")
    assert _run(["fit", "--data", prefix + "_train.csv", "--lambda", "4",
                 "--gamma", "1.5e-4", "--intervals", "10",
                 "--out", model]) in (0, 3)
    with open(prefix + "_test.csv") as fh:
        alpha = fh.readline().split(" alpha=")[1].split()[0]
    return prefix + "_test.csv", model, alpha


def test_evaluate_reads_the_recorded_alpha(spectra_fit, tmp_path):
    test, model, alpha = spectra_fit
    metrics = {}
    for name, flag in (("header", []), ("flag", ["--true-alpha", alpha]),
                       ("zero", ["--true-alpha", "0"])):
        out = tmp_path / f"{name}.json"
        assert _run(["evaluate", "--model", model, "--test", test,
                     "--true-beta", "spectra", "--out", str(out)] + flag) == 0
        metrics[name] = out.read_bytes()
    assert metrics["header"] == metrics["flag"]
    # the spectra intercept is not 0, so neither is its effect on pmse
    assert metrics["header"] != metrics["zero"]


def test_evaluate_refuses_a_non_finite_recorded_alpha(spectra_fit, tmp_path,
                                                      capsys):
    test, model, _ = spectra_fit
    bad = tmp_path / "test.csv"
    with open(test) as fh:
        bad.write_text("# alpha=nan\n" + fh.read())
    out = tmp_path / "metrics.json"
    argv = ["evaluate", "--model", model, "--test", str(bad),
            "--true-beta", "spectra", "--out", str(out)]
    assert _run(argv) == 2
    assert "alpha=nan" in capsys.readouterr().err
    assert not out.exists()
    # an explicit --true-alpha is used instead of the header
    assert _run(argv + ["--true-alpha", "0"]) == 0


@pytest.fixture(scope="module")
def fitted(sim_files, tmp_path_factory):
    root, prefix = sim_files
    out = tmp_path_factory.mktemp("fit") / "model.json"
    code = _run(["fit", "--data", prefix + "_train.csv",
                 "--lambda", "8.0", "--gamma", "1e-4", "--out", str(out)])
    assert code == 0
    return out


def test_fit_artifacts(fitted):
    doc = json.loads(fitted.read_text())
    for key in ("domain", "degree", "M", "b", "alpha", "null_mask",
                "lambda", "gamma", "m"):
        assert key in doc
    assert doc["M"] == 30  # auto rule on the 101-point grid
    curve = fitted.parent / "model_beta.csv"
    lines = curve.read_text().splitlines()
    # the settings line that predict also writes
    assert lines[0] == ("# lambda=8.0 gamma=0.0001 degree=3 m=2 "
                        "intervals=30"), lines[0]
    assert lines[1] == "t,beta_hat,is_null"
    assert len(lines) == 2 + 1001


def test_predict_and_evaluate(sim_files, fitted, tmp_path):
    _, prefix = sim_files
    pred = tmp_path / "pred.csv"
    assert _run(["predict", "--model", str(fitted), "--data",
                 prefix + "_test.csv", "--out", str(pred)]) == 0
    rows = [l for l in pred.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "probability,class"
    assert len(rows) == 101
    p, c = rows[1].split(",")
    assert 0.0 < float(p) < 1.0 and c in ("0", "1")

    metrics = tmp_path / "metrics.json"
    assert _run(["evaluate", "--model", str(fitted), "--test",
                 prefix + "_test.csv", "--true-beta", "one-null",
                 "--out", str(metrics)]) == 0
    doc = json.loads(metrics.read_text())
    assert 0.0 <= doc["mcr"] <= 1.0
    assert doc["ise0"] is not None and doc["ise1"] is not None
    assert doc["pmse"] is not None


def test_predict_file_does_not_depend_on_where_its_inputs_live(
        sim_files, fitted, tmp_path):
    _, prefix = sim_files
    outputs = []
    for where in ("a", "b/c"):
        d = tmp_path / where
        d.mkdir(parents=True)
        model, data = d / "model.json", d / "test.csv"
        model.write_bytes(fitted.read_bytes())
        data.write_bytes(Path(prefix + "_test.csv").read_bytes())
        assert _run(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(d / "pred.csv")]) == 0
        outputs.append((d / "pred.csv").read_bytes())
    assert outputs[0] == outputs[1]
    header = outputs[0].decode().splitlines()[0]
    assert header == ("# lambda=8.0 gamma=0.0001 degree=3 m=2 "
                      "intervals=30"), header


def test_tune_writes_best_pair(sim_files, tmp_path):
    _, prefix = sim_files
    out = tmp_path / "scores.csv"
    code = _run(["tune", "--data", prefix + "_train.csv",
                 "--lambda-grid", "4.0,8.0", "--gamma-grid", "1e-3,1e-4",
                 "--criterion", "bic", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "best_lambda=" in text and "best_gamma=" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "lambda,gamma,criterion,score,converged"
    assert len(body) == 5


_THREAD_NOTE = ("note: 104 unknowns exceed 96; results may differ in their "
                "last bits between OpenBLAS thread counts\n")


@pytest.mark.parametrize("command, weights", [
    ("fit", ["--lambda", "8.0", "--gamma", "1e-3"]),
    ("tune", ["--lambda-grid", "8.0", "--gamma-grid", "1e-3"])])
@pytest.mark.parametrize("intervals, err", [("100", _THREAD_NOTE), ("92", "")])
def test_note_past_96_unknowns(sim_files, tmp_path, capsys, command, weights,
                               intervals, err):
    # a cubic basis on 92 intervals plus the intercept is 96 unknowns, the
    # largest Newton system whose bits do not depend on the thread count
    _, prefix = sim_files
    code = _run([command, "--data", prefix + "_train.csv", *weights,
                 "--intervals", intervals, "--out", str(tmp_path / "out")])
    assert code in (0, 3)
    assert capsys.readouterr().err == err


def test_tune_score_file_bytes(sim_files, tmp_path, monkeypatch):
    # the table rows as tune returns them, one of them a failed pair
    table = [{"lambda": 4.0, "gamma": 0.001, "criterion": "bic",
              "score": 181.40625, "converged": True},
             {"lambda": 8.0, "gamma": 0.0001, "criterion": "bic",
              "score": math.inf, "converged": False}]
    monkeypatch.setattr(cli, "tune", lambda *args: TuningResult(
        best_lambda=4.0, best_gamma=0.001, table=table))
    _, prefix = sim_files
    out = tmp_path / "scores.csv"
    assert _run(["tune", "--data", prefix + "_train.csv",
                 "--lambda-grid", "4.0,8.0", "--gamma-grid", "1e-3,1e-4",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"# criterion=bic seed=0 folds=5 intervals=30\n"
        b"# best_lambda=4.0 best_gamma=0.001\n"
        b"lambda,gamma,criterion,score,converged\n"
        b"4.0,0.001,bic,181.40625,True\n"
        b"8.0,0.0001,bic,inf,False\n")


def test_evaluate_metrics_file_bytes(tmp_path):
    # a model that puts every curve in class 0, so the false discovery rate
    # is undefined, scored against beta = 0 with the model's own intercept
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "domain": [0.0, 1.0], "degree": 3, "M": 2, "b": [0.0] * 5,
        "alpha": -5.0, "null_mask": [False, False], "lambda": 1.0,
        "gamma": 0.001, "m": 2}))
    test = tmp_path / "test.csv"
    test.write_text("t,0.0,0.5,1.0\n1,1.0,-2.0,3.0\n0,0.5,0.5,0.5\n"
                    "0,-1.0,0.0,1.0\n")
    beta = tmp_path / "beta.csv"
    beta.write_text("t,beta\n0.0,0.0\n1.0,0.0\n")
    out = tmp_path / "metrics.json"
    assert _run(["evaluate", "--model", str(model), "--test", str(test),
                 "--true-beta", str(beta), "--true-alpha", "-5",
                 "--null-regions", "0.2:0.4", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b'{\n  "mcr": 0.3333333333333333,\n  "sensitivity": 0.0,\n'
        b'  "specificity": 1.0,\n  "fdr": null,\n  "miss_rate": 1.0,\n'
        b'  "pmse": 0.0,\n  "ise0": 0.0,\n  "ise1": 0.0,\n  "tp": 0,\n'
        b'  "fp": 0,\n  "tn": 2,\n  "fn": 1\n}\n')


def test_bic_and_aic_select_same_pair_on_reference_seed(sim_files, tmp_path):
    _, prefix = sim_files
    pairs = {}
    for crit in ("bic", "aic"):
        out = tmp_path / f"{crit}.csv"
        assert _run(["tune", "--data", prefix + "_train.csv",
                     "--lambda-grid", "4.0,8.0", "--gamma-grid", "1e-2,1e-4",
                     "--criterion", crit, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        pairs[crit] = header
    assert pairs["bic"].split("best_lambda=")[1] == \
           pairs["aic"].split("best_lambda=")[1]


def _single_class_csv(path):
    """A 12-curve data file on a 21-point grid whose labels are all 1."""
    rng = np.random.default_rng(0)
    rows = ["t," + ",".join(str(v) for v in np.linspace(0, 1, 21))]
    for i in range(12):
        rows.append("1," + ",".join(
            repr(float(v)) for v in rng.standard_normal(21)))
    path.write_text("\n".join(rows) + "\n")
    return path


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert _run(["fit", "--data", "x.csv", "--lambda", "abc",
                     "--gamma", "1.0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_1(self):
        assert _run(["simulate", "--scenario", "one-null", "--n-train", "10",
                     "--bogus"]) == 1

    def test_unknown_subcommand_is_1(self):
        assert _run(["frobnicate"]) == 1

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert _run(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--lambda", "1.0", "--gamma", "1.0",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_data_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,0.0,1.0\n1,1.0,2.0\n")
        assert _run(["fit", "--data", str(bad), "--lambda", "1.0",
                     "--gamma", "1.0", "--out", str(tmp_path / "m.json")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unlabeled_fit_is_2(self, tmp_path):
        na = tmp_path / "na.csv"
        na.write_text("t,0.0,0.5,1.0\nNA,1.0,2.0,3.0\nNA,1.0,0.0,2.0\n")
        assert _run(["fit", "--data", str(na), "--lambda", "1.0",
                     "--gamma", "1.0", "--out", str(tmp_path / "m.json")]) == 2

    def test_one_curve_fit_is_2(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("t,0.0,0.5,1.0\n1,1.0,2.0,3.0\n")
        model = tmp_path / "m.json"
        assert _run(["fit", "--data", str(one), "--lambda", "1.0",
                     "--gamma", "1.0", "--out", str(model)]) == 2
        assert "data error: fit needs at least 2 curves, got 1" in \
            capsys.readouterr().err
        assert not model.exists()

    def test_non_convergence_is_3(self, tmp_path):
        # single-class labels cannot converge and are flagged, not raised
        deg = _single_class_csv(tmp_path / "deg.csv")
        with pytest.warns(RuntimeWarning):
            code = _run(["fit", "--data", str(deg), "--lambda", "1.0",
                         "--gamma", "1e-3", "--intervals", "5",
                         "--out", str(tmp_path / "m.json")])
        assert code == 3

    @pytest.mark.parametrize("flag", ["--lambda", "--gamma"])
    def test_overflowing_penalty_fit_is_3(self, sim_files, tmp_path, capsys,
                                         flag):
        # a 1e308 weight overflows the Newton system to inf
        _, prefix = sim_files
        weights = {"--lambda": "1.0", "--gamma": "1e-3", flag: "1e308"}
        model = tmp_path / "m.json"
        with pytest.warns(RuntimeWarning):
            code = _run(["fit", "--data", prefix + "_train.csv",
                         *itertools.chain(*weights.items()),
                         "--out", str(model)])
        assert code == 3
        assert capsys.readouterr().err == (
            "no convergence: non-finite Newton system; no model written\n")
        assert list(tmp_path.iterdir()) == []

    def test_single_class_tune_is_2(self, tmp_path, capsys):
        one = _single_class_csv(tmp_path / "one.csv")
        out = tmp_path / "scores.csv"
        assert _run(["tune", "--data", str(one), "--lambda-grid", "1",
                     "--gamma-grid", "1e-3", "--intervals", "5",
                     "--out", str(out)]) == 2
        assert "both classes" in capsys.readouterr().err
        assert not out.exists()

    def test_tune_without_converged_pair_is_3(self, tmp_path, capsys):
        # separable labels: the unpenalized fit runs off to infinity
        rows = ["t," + ",".join(str(t) for t in np.linspace(0, 1, 11))]
        rows += [f"{i % 2}," + ",".join([str(2.0 * (i % 2) - 1.0)] * 11)
                 for i in range(8)]
        sep = tmp_path / "sep.csv"
        sep.write_text("\n".join(rows) + "\n")
        out = tmp_path / "scores.csv"
        assert _run(["tune", "--data", str(sep), "--lambda-grid", "0",
                     "--gamma-grid", "0", "--intervals", "2",
                     "--out", str(out)]) == 3
        assert "no tuning grid point converged" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_folds_past_class_size_is_2(self, tmp_path, capsys):
        # 20 curves per class: 25 folds leave 5 without held-out curves
        data = tmp_path / "two.csv"
        write_dataset(data, FunctionalDataset(
            np.linspace(0, 1, 21),
            np.random.default_rng(0).standard_normal((40, 21)),
            np.arange(40) % 2))
        out = tmp_path / "scores.csv"
        assert _run(["tune", "--data", str(data), "--lambda-grid", "1",
                     "--gamma-grid", "1e-2", "--criterion", "cv",
                     "--folds", "25", "--intervals", "5",
                     "--out", str(out)]) == 2
        assert "data error: CV with 25 folds leaves 5 of them without " \
            "held-out curves: the classes have 20 and 20 curves" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--scenario", "one-null", "--n-train", "5"],
        ["tune", "--data", "x.csv", "--lambda-grid", "1",
         "--gamma-grid", "1e-3", "--criterion", "cv"]])
    def test_negative_seed_is_1(self, tmp_path, capsys, command):
        assert _run([*command, "--seed", "-1", "--out" + (
            "-prefix" if command[0] == "simulate" else ""),
            str(tmp_path / "out")]) == 1
        assert "argument --seed: must be a finite int >= 0" in \
            capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_finite_data_is_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("t,0.0,0.5,1.0\n1,1.0,nan,3.0\n0,1.0,0.0,2.0\n")
        assert _run(["fit", "--data", str(bad), "--lambda", "1.0",
                     "--gamma", "1.0", "--out", str(tmp_path / "m.json")]) == 2
        assert "row 2, column 3" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2", "1.5"])
    def test_non_positive_intervals_is_1(self, capsys, count):
        assert _run(["fit", "--data", "x.csv", "--lambda", "1.0",
                     "--gamma", "1.0", "--intervals", count]) == 1
        assert "--intervals must be a positive integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["fit", "--lambda", "1.0", "--gamma", "1e-3", "--degree", "0"],
        ["fit", "--lambda", "1.0", "--gamma", "1e-3", "--m", "5"],
        ["fit", "--lambda", "-1", "--gamma", "1e-3"],
        ["tune", "--lambda-grid", "1.0", "--gamma-grid", "1e-3",
         "--criterion", "cv", "--folds", "1"],
        ["tune", "--lambda-grid", ",", "--gamma-grid", "1e-3"],
    ])
    def test_invalid_flag_value_is_1(self, sim_files, tmp_path, capsys,
                                     flags):
        _, prefix = sim_files
        assert _run(flags + ["--data", prefix + "_train.csv",
                             "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("b", "short"), ("null_mask", "short"), ("alpha", float("nan")),
        ("degree", 0), ("domain", [0.5, 1.0]),
    ])
    def test_inconsistent_model_is_2(self, sim_files, fitted, tmp_path,
                                     capsys, field, value):
        _, prefix = sim_files
        doc = json.loads(fitted.read_text())
        doc[field] = doc[field][:-1] if value == "short" else value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert _run(["predict", "--model", str(broken), "--data",
                     prefix + "_test.csv", "--out", str(out)]) == 2
        assert f"{field!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_true_beta_past_its_domain_is_2(self, tmp_path, capsys):
        # a model fitted on [0, 2] can score curves on [0, 2], but the
        # scenario's coefficient function only exists on [0, 1]
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 2.0, 41)
        rows = ["t," + ",".join(repr(float(t)) for t in grid)]
        rows += [f"{i % 2}," + ",".join(repr(float(v)) for v in
                                        rng.standard_normal(41))
                 for i in range(40)]
        wide = tmp_path / "wide.csv"
        wide.write_text("\n".join(rows) + "\n")
        model = tmp_path / "m.json"
        assert _run(["fit", "--data", str(wide), "--lambda", "1.0",
                     "--gamma", "1e-3", "--intervals", "5",
                     "--out", str(model)]) in (0, 3)
        assert _run(["evaluate", "--model", str(model), "--test", str(wide),
                     "--true-beta", "one-null",
                     "--out", str(tmp_path / "metrics.json")]) == 2
        assert "defined on [0, 1]" in capsys.readouterr().err

    def test_true_beta_file_short_of_domain_is_2(self, sim_files, fitted,
                                                 tmp_path, capsys):
        # np.interp would hold the curve constant past the file's t range
        _, prefix = sim_files
        out = tmp_path / "metrics.json"
        for text, span in (("t,beta\n0,0\n0.5,0\n", "[0, 0.5]"),
                           ("t,beta\n0.25,0\n1,0\n", "[0.25, 1]")):
            curve = tmp_path / "short.csv"
            curve.write_text(text)
            assert _run(["evaluate", "--model", str(fitted), "--test",
                         prefix + "_test.csv", "--true-beta", str(curve),
                         "--null-regions", "0.3:0.7",
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"covers {span}" in err and "span [0, 1]" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_model_missing_key_is_2(self, sim_files, fitted, tmp_path,
                                    capsys, command):
        _, prefix = sim_files
        doc = json.loads(fitted.read_text())
        del doc["alpha"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        data_flag = "--data" if command == "predict" else "--test"
        assert _run([command, "--model", str(broken), data_flag,
                     prefix + "_test.csv",
                     "--out", str(tmp_path / "out")]) == 2
        assert "'alpha'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_model_not_a_json_object_is_2(self, sim_files, tmp_path, capsys,
                                          text):
        _, prefix = sim_files
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        assert _run(["predict", "--model", str(broken), "--data",
                     prefix + "_test.csv",
                     "--out", str(tmp_path / "out")]) == 2
        assert "model file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_model_not_utf8_is_2(self, sim_files, tmp_path, capsys, command):
        _, prefix = sim_files
        broken = tmp_path / "broken.json"
        broken.write_bytes(b"\xff\xfe{\x00}\x00\n\x00\x00\x00")
        data_flag = "--data" if command == "predict" else "--test"
        assert _run([command, "--model", str(broken), data_flag,
                     prefix + "_test.csv",
                     "--out", str(tmp_path / "out")]) == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_grid_outside_model_domain_is_2(self, fitted, tmp_path, capsys,
                                            command):
        # the model lives on [0, 1]; these curves run to t = 2
        wide = tmp_path / "wide.csv"
        wide.write_text("t,0.0,1.0,2.0\n1,1.0,2.0,3.0\n0,3.0,2.0,1.0\n")
        data_flag = "--data" if command == "predict" else "--test"
        assert _run([command, "--model", str(fitted), data_flag, str(wide),
                     "--out", str(tmp_path / "out")]) == 2
        assert "data grid extends outside the basis domain" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "predict", "tune", "evaluate"])
    def test_data_not_utf8_is_2(self, fitted, tmp_path, capsys, command):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"t,0.0,1.0\n1,1.0,2.0\n# caf\xe9\n0,2.0,3.0\n")
        args = {"fit": ["--data", str(bad), "--lambda", "1.0",
                        "--gamma", "1.0"],
                "predict": ["--model", str(fitted), "--data", str(bad)],
                "tune": ["--data", str(bad), "--lambda-grid", "1",
                         "--gamma-grid", "1e-3"],
                "evaluate": ["--model", str(fitted), "--test", str(bad)]}
        out = tmp_path / "out"
        assert _run([command, *args[command], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data file {bad} is not UTF-8 text: byte 25 is 0xe9" in err
        assert not out.exists()

    def test_over_long_cell_is_2(self, tmp_path, capsys):
        bad = tmp_path / "long.csv"
        bad.write_text("t,0.0,1.0\n1," + "a" * 200_001 + ",2.0\n0,1.0,2.0\n")
        out = tmp_path / "m.json"
        assert _run(["fit", "--data", str(bad), "--lambda", "1.0",
                     "--gamma", "1.0", "--out", str(out)]) == 2
        assert "data error: row 2: field larger than field limit" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_data_path_is_a_directory_is_2(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert _run(["fit", "--data", str(tmp_path), "--lambda", "1.0",
                     "--gamma", "1.0", "--out", str(out)]) == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n-train", "0"), ("--n-test", "-1"), ("--grid-size", "1"),
        ("--snr", "0"), ("--snr", "nan"),
    ])
    def test_invalid_simulate_size_is_1(self, tmp_path, capsys, flag, value):
        args = {"--n-train": "20", flag: value}
        prefix = str(tmp_path / "sim")
        assert _run(["simulate", "--scenario", "one-null",
                     *(tok for kv in args.items() for tok in kv),
                     "--out-prefix", prefix]) == 1
        assert f"argument {flag}: must be a finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_finite_true_alpha_is_1(self, sim_files, fitted, tmp_path,
                                        capsys):
        _, prefix = sim_files
        out = tmp_path / "metrics.json"
        assert _run(["evaluate", "--model", str(fitted), "--test",
                     prefix + "_test.csv", "--true-beta", "one-null",
                     "--true-alpha", "nan", "--out", str(out)]) == 1
        assert "argument --true-alpha" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--null-regions", "0.3:0.7"], "--null-regions needs --true-beta"),
        (["--true-alpha", "0.5"], "--true-alpha needs --true-beta"),
        (["--true-beta", "one-null", "--null-regions", ""],
         "argument --null-regions: no start:end interval in ''"),
        (["--true-beta", "one-null", "--null-regions", " , "],
         "argument --null-regions: no start:end interval in ' , '"),
    ])
    def test_ignored_true_curve_flag_is_1(self, sim_files, fitted, tmp_path,
                                          capsys, flags, message):
        # each flag describes the true curve: without one to describe, or
        # with no interval listed, it would change nothing in the output
        _, prefix = sim_files
        out = tmp_path / "metrics.json"
        assert _run(["evaluate", "--model", str(fitted), "--test",
                     prefix + "_test.csv", *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("t,beta\n0.0,1.0\n0.5,abc\n1.0,0.0\n", "row 3, column 2"),
        ("t,beta\n0.0,1.0\n0.5\n1.0,0.0\n", "row 3: expected t and a value"),
        ("t,beta\n0.0,1.0\n1.0,0.0\n0.5,2.0\n",
         "row 4: t not strictly increasing at t=0.5"),
        ("t,beta\n", "no data rows"),
    ])
    def test_malformed_true_beta_file_is_2(self, sim_files, fitted, tmp_path,
                                           capsys, text, message):
        _, prefix = sim_files
        curve = tmp_path / "beta.csv"
        curve.write_text("# a hand-made curve\n" + text)
        out = tmp_path / "metrics.json"
        assert _run(["evaluate", "--model", str(fitted), "--test",
                     prefix + "_test.csv", "--true-beta", str(curve),
                     "--null-regions", "0.3:0.7", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_null_region_is_1(self, sim_files, fitted, tmp_path,
                                       capsys):
        _, prefix = sim_files
        out = tmp_path / "metrics.json"
        assert _run(["evaluate", "--model", str(fitted), "--test",
                     prefix + "_test.csv", "--true-beta", "one-null",
                     "--null-regions", "0.7:0.3", "--out", str(out)]) == 1
        assert "bad interval '0.7:0.3'" in capsys.readouterr().err
        assert not out.exists()

    def test_null_region_past_model_domain_is_2(self, sim_files, fitted,
                                                tmp_path, capsys):
        _, prefix = sim_files
        out = tmp_path / "metrics.json"
        assert _run(["evaluate", "--model", str(fitted), "--test",
                     prefix + "_test.csv", "--true-beta", "one-null",
                     "--null-regions", "0.5:2", "--out", str(out)]) == 2
        assert "past the model's domain [0, 1]" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Tiny inputs for the fuzzed command lines, by placeholder name."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 11)
    header = "t," + ",".join(repr(float(t)) for t in grid)

    def table(labels):
        return "\n".join([header] + [
            f"{lab}," + ",".join(repr(float(v))
                                 for v in rng.standard_normal(grid.size))
            for lab in labels]) + "\n"

    files = {"train": table([0, 1] * 5), "test": table([1, 0] * 3),
             "unlabeled": table(["NA"] * 3), "one_curve": table([1]),
             "curve": "t,beta\n0,1\n1,-1\n",
             "short_curve": "t,beta\n0,1\n0.5,-1\n"}
    paths = {}
    for name, text in files.items():
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(text)
    paths["garbage"] = root / "garbage.csv"
    paths["garbage"].write_bytes(b"\xff\xfe,1\n")
    paths["dir"] = root
    paths["missing"] = root / "missing.csv"
    paths["model"] = root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--data", str(paths["train"]), "--lambda", "1",
                     "--gamma", "1e-3", "--intervals", "3",
                     "--out", str(paths["model"])]) in (0, 3)
    return {f"{{{name}}}": str(path) for name, path in paths.items()}


# flag -> (values a run can succeed with, values that should be refused)
_NUMBER_BAD = ["-1", "nan", "inf", "x"]
_GRID_BAD = [",", "nan", "-1,2", ""]
_FLAG_VALUES = {
    "--data": (["{train}", "{test}"],
               ["{unlabeled}", "{one_curve}", "{garbage}", "{dir}",
                "{missing}", "{model}"]),
    "--test": (["{test}", "{train}"], ["{unlabeled}", "{garbage}", "{missing}"]),
    "--model": (["{model}"], ["{train}", "{garbage}", "{missing}", "{dir}"]),
    "--lambda": (["0", "1", "8", "1e308"], _NUMBER_BAD),
    "--gamma": (["0", "1e-3", "1", "1e308"], _NUMBER_BAD),
    "--true-alpha": (["0", "1.5", "-2"], ["nan", "x"]),
    "--lambda-grid": (["1", "0,2", "0.5,4"], _GRID_BAD),
    "--gamma-grid": (["1e-3", "0,1e-2", "1e-4,1"], _GRID_BAD),
    "--criterion": (["bic", "aic", "cv"], ["xx"]),
    "--folds": (["2", "3", "5"], ["1", "0", "-2", "50", "x"]),
    "--seed": (["0", "7", "123456789012"], ["-1", "x"]),
    "--degree": (["2", "3", "5"], ["1", "0", "x"]),
    "--m": (["1", "2"], ["0", "5", "x"]),
    "--intervals": (["auto", "1", "3", "40"], ["0", "-1", "x"]),
    "--scenario": (["one-null", "three-null", "spectra"], ["nope"]),
    "--n-train": (["1", "2", "5"], ["0", "-1", "x"]),
    "--n-test": (["1", "3"], ["0", "x"]),
    "--grid-size": (["2", "11"], ["1", "x"]),
    "--snr": (["1", "0.5"], ["0", "-1", "nan", "x"]),
    "--true-beta": (["one-null", "three-null", "spectra", "{curve}"],
                    ["{short_curve}", "{garbage}", "{missing}", "nope"]),
    "--null-regions": (["0.3:0.7", "0:0.2,0.8:1"],
                       ["0.7:0.3", "0.5:2", "x", ""]),
    "--out": (["{out}/result"], ["{dir}"]),
    "--out-prefix": (["{out}/sim"], ["{missing}/sim"]),
}
_COMMAND_FLAGS = {
    "fit": ["--data", "--lambda", "--gamma", "--degree", "--m",
            "--intervals", "--out"],
    "predict": ["--model", "--data", "--out"],
    "tune": ["--data", "--lambda-grid", "--gamma-grid", "--criterion",
             "--folds", "--seed", "--degree", "--m", "--intervals", "--out"],
    "simulate": ["--scenario", "--n-train", "--n-test", "--seed", "--snr",
                 "--grid-size", "--out-prefix"],
    "evaluate": ["--model", "--test", "--true-beta", "--true-alpha",
                 "--null-regions", "--out"],
}


@st.composite
def _command_lines(draw):
    """A command with all its flags but at most one, now and then a
    foreign flag, and at most one flag given a value it should refuse."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    own = _COMMAND_FLAGS[command]
    flags = draw(st.lists(st.sampled_from(own), min_size=len(own) - 1,
                          unique=True))
    flags += draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=1))
    broken = draw(st.sampled_from([None, *flags]))
    argv = [command]
    for flag in flags:
        good, bad = _FLAG_VALUES[flag]
        argv += [flag, draw(st.sampled_from(bad if flag == broken else good))]
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=_command_lines())
def test_main_never_raises_on_fuzzed_flags(fuzz_files, argv):
    # run inside the output directory: an omitted --out writes to the cwd
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out:
        names = {**fuzz_files, "{out}": out}
        argv = [names.get(a, a).replace("{out}", out) for a in argv]
        os.chdir(out)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), argv


def _refused_file_runs():
    """(command, flag, file) for every refused file of the fuzzer's table
    and every command that reads it through that flag."""
    readers = {"--data": ("fit", "tune", "predict"),
               "--model": ("evaluate", "predict"), "--test": ("evaluate",),
               "--true-beta": ("evaluate",)}
    for flag, commands in readers.items():
        for value in _FLAG_VALUES[flag][1]:
            for command in commands:
                # predict takes unlabeled curves, and one is enough
                if (value.startswith("{") and not (command == "predict"
                        and value in ("{unlabeled}", "{one_curve}"))):
                    yield command, flag, value


_GOOD_ARGS = {
    "fit": {"--data": "{train}", "--lambda": "1", "--gamma": "1e-3",
            "--intervals": "3"},
    "tune": {"--data": "{train}", "--lambda-grid": "1",
             "--gamma-grid": "1e-3", "--intervals": "3"},
    "predict": {"--model": "{model}", "--data": "{test}"},
    "evaluate": {"--model": "{model}", "--test": "{test}",
                 "--true-beta": "one-null"},
}


@pytest.mark.parametrize("command,flag,value", list(_refused_file_runs()))
def test_refused_file_is_a_data_error(fuzz_files, tmp_path, capsys, command,
                                      flag, value):
    out = tmp_path / "out"
    out.mkdir()
    args = {**_GOOD_ARGS[command], flag: value, "--out": str(out / "result")}
    argv = [command]
    for key, arg in args.items():
        argv += [key, fuzz_files.get(arg, arg)]
    assert _run(argv) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not any(out.iterdir())
