"""Results do not depend on the BLAS thread count, up to 96 unknowns.

OpenBLAS splits a large enough product across its threads, which changes
the order of the sums. The solver sums the likelihood Hessian over
256-row blocks, which it does not split while a fit has at most 96
unknowns (95 basis functions plus the intercept); LAPACK's LU solve keeps
its bits up to that size too. Above it the LU solve changes, and so does
the Hessian except at multiples of 8 columns: a one_null fit at
`--intervals 100` (104 unknowns) writes different bytes at 1 and 2
threads. Each check runs the same work in two subprocesses, at 1 and at 2
OpenBLAS threads, and compares the output byte for byte; the largest fit
is the 96-unknown boundary itself. The thread count is fixed when
OpenBLAS loads, so it cannot be changed in-process. At N = 450 even the
whole-N product is not split, so the checks use N = 1000.
"""
import os
import subprocess
import sys
from pathlib import Path

import sflr

_SCRIPT = """
import sys
from pathlib import Path

from sflr.cli import main
from sflr.simulate import (ScenarioSpec, default_tuning_grid,
                           replicate_experiment)
from sflr.solver import SolverConfig

out = Path(sys.argv[1])
spec = ScenarioSpec("one_null", n_train=1000, n_test=1000, seed=20260823)
result = replicate_experiment(spec, default_tuning_grid("one_null", 1000),
                              2, SolverConfig(max_iterations=300))
(out / "rows.txt").write_text(repr(result.rows))
prefix = str(out / "one")
assert main(["simulate", "--scenario", "one-null", "--n-train", "1000",
             "--n-test", "10", "--grid-size", "201", "--seed", "7",
             "--out-prefix", prefix]) == 0
assert main(["fit", "--data", prefix + "_train.csv", "--lambda", "54.4",
             "--gamma", "3e-5", "--out", str(out / "model.json")]) in (0, 3)
assert main(["fit", "--data", prefix + "_train.csv", "--lambda", "54.4",
             "--gamma", "3e-5", "--intervals", "92",
             "--out", str(out / "wide.json")]) in (0, 3)
"""

_COMPARED = ("rows.txt", "model.json", "model_beta.csv", "wide.json",
             "wide_beta.csv")


def _run_at(threads: int, out: Path) -> dict[str, bytes]:
    out.mkdir()
    src = str(Path(sflr.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", _SCRIPT, str(out)], env=env,
                   check=True, timeout=600)
    return {name: (out / name).read_bytes() for name in _COMPARED}


def test_replicate_rows_and_fit_files_match_at_one_and_two_threads(tmp_path):
    one = _run_at(1, tmp_path / "one_thread")
    two = _run_at(2, tmp_path / "two_threads")
    for name in _COMPARED:
        assert one[name] == two[name], name
