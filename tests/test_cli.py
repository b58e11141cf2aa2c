"""End-to-end CLI contract: subcommands, artifacts, exit codes."""
import json

import numpy as np
import pytest

from sflr.cli import main
from sflr.dataio import read_dataset


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
    assert lines[0].startswith("#")
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

    def test_non_convergence_is_3(self, tmp_path):
        # single-class labels cannot converge and are flagged, not raised
        rng = np.random.default_rng(0)
        rows = ["t," + ",".join(str(v) for v in np.linspace(0, 1, 21))]
        for i in range(12):
            rows.append("1," + ",".join(
                repr(float(v)) for v in rng.standard_normal(21)))
        deg = tmp_path / "deg.csv"
        deg.write_text("\n".join(rows) + "\n")
        with pytest.warns(RuntimeWarning):
            code = _run(["fit", "--data", str(deg), "--lambda", "1.0",
                         "--gamma", "1e-3", "--intervals", "5",
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
