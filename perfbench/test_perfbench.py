"""Self-tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""
import inspect
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import run
import spans
from workloads import Outcome, _quality_problems

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def sflr():
    return run.load_sflr()


# -- tail percentile -----------------------------------------------------------

@pytest.mark.parametrize("n, rank, pct", [(100, 90, 90.0), (40, 30, 75.0),
                                          (30, 20, 100 * 20 / 30), (20, 10, 50.0)])
def test_tail_is_highest_order_statistic_with_ten_beyond(n, rank, pct):
    samples = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    value, percentile = run.tail_latency(samples)
    assert value == rank  # the rank-th smallest of 1..n
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert percentile == pytest.approx(pct)


@pytest.mark.parametrize("n", [1, 5, 12, 19])
def test_tail_falls_back_to_median_with_too_few_samples(n):
    samples = [float(v) for v in range(n)]
    assert run.tail_latency(samples) == (float(np.median(samples)), 50.0)


def test_blocks_repeat_their_first_dataset():
    assert [run.dataset_of(i) for i in range(9)] == [0, 1, 2, 0, 3, 4, 5, 3, 6]
    assert run.QUALITY_DATASETS == 6


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = np.percentile(values, [25, 50, 75], method="weibull")
    assert run.relative_iqr(values) == pytest.approx((q3 - q1) / q2)


def test_per_op_quality_check_accepts_a_shrunk_fit_not_a_non_rate():
    # a near-constant fit on weak-signal data: mcr above 0.5, not wrong
    shrunk = {"mcr": 0.523, "sensitivity": 0.0019, "specificity": 1.0}
    assert _quality_problems([shrunk]) == []
    undefined = {"mcr": 0.3, "sensitivity": None, "specificity": 0.7}
    not_a_rate = {"mcr": float("nan"), "sensitivity": 0.6, "specificity": 1.2}
    assert len(_quality_problems([undefined, not_a_rate])) == 3


def test_run_must_beat_chance_on_median_held_out_rows():
    good = {"sensitivity": 0.6, "specificity": 0.7}
    constant = {"sensitivity": 0.0, "specificity": 1.0}
    inverted = {"sensitivity": 0.3, "specificity": 0.4}
    assert run.chance_problem([good, good, constant]) is None
    assert run.chance_problem([]) is None
    assert "no better than chance" in run.chance_problem([good, constant, constant])
    assert "no better than chance" in run.chance_problem([inverted] * 3)


# -- self time -------------------------------------------------------------------

def test_self_time_with_overlapping_children_from_pool_threads():
    # parent on thread 1; children on threads 2 and 3 overlap each other,
    # and the last one outlives the parent's interval
    recorded = [
        (1, "tuning.tune", None, 1, 0.0, 10.0),
        (2, "solver.fit", 1, 2, 1.0, 5.0),
        (3, "solver.fit", 1, 3, 3.0, 8.0),
        (4, "solver.fit", 1, 2, 9.0, 12.0),
        (5, "solver.newton_step", 3, 3, 4.0, 6.0),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == pytest.approx(10.0 - (7.0 + 1.0))
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(5.0 - 2.0)
    assert selfs[5] == pytest.approx(2.0)


def test_union_length_merges_and_clips():
    assert spans.union_length([(1, 3), (2, 4), (6, 7), (-1, 0.5)], 0, 6.5) == \
        pytest.approx(0.5 + 3.0 + 0.5)
    assert spans.union_length([], 0, 1) == 0.0


def test_pool_thread_spans_find_their_parent(sflr, monkeypatch):
    monkeypatch.setenv("SFLR_THREADS", "2")
    spec = sflr.simulate.ScenarioSpec("one_null", n_train=80, seed=3)
    X = sflr.simulate.generate_predictors(spec)
    y, _ = sflr.simulate.generate_responses(X, sflr.simulate.beta_one_null,
                                            0.0, 4)
    data = sflr.design.FunctionalDataset(X.grid, X.values, y)
    basis = sflr.basis.make_basis(1.0, 3, 8)
    grid = sflr.tuning.TuningGrid(lambdas=(1.0, 2.0), gammas=(1e-3, 1e-4))
    tracer = spans.Tracer()
    tracer.install(sflr)
    try:
        sflr.tuning.tune(data, basis, grid, sflr.solver.SolverConfig())
    finally:
        tracer.remove()
    by_id = {s[0]: s for s in tracer.spans}
    fits = [s for s in tracer.spans if s[1] == "solver.fit"]
    assert len(fits) == 4
    (tune,) = [s for s in tracer.spans if s[1] == "tuning.tune"]
    for fit in fits:
        assert by_id[fit[2]][1] == "tuning.tune"
    assert any(fit[3] != tune[3] for fit in fits)
    tracer.fold()
    summary = tracer.summary(1)
    assert set(summary) == set(spans.PER_LAYER_UNITS)
    assert summary["solver.fit.calls"] == 4
    assert summary["tuning.tune.concurrency"] > 0


# -- wrappers --------------------------------------------------------------------

def _bindings(sflr):
    return {(name, attr): value
            for name, mod in spans.sflr_modules(sflr).items()
            for attr, value in vars(mod).items()
            if inspect.isfunction(value) or value is ThreadPoolExecutor}


class _Workload:
    """A small op that crosses the basis, design and solver layers."""

    def __init__(self, sflr):
        self.sflr = sflr
        spec = sflr.simulate.ScenarioSpec("one_null", n_train=60, seed=1)
        self.X = sflr.simulate.generate_predictors(spec)
        self.y, _ = sflr.simulate.generate_responses(
            self.X, sflr.simulate.beta_one_null, 0.0, 2)

    def op(self, d):
        s = self.sflr
        basis = s.basis.make_basis(1.0, 3, 6 + d % 3)
        design = s.design.build_design(self.X, basis)
        res = s.solver.fit(design.U, self.y.astype(float), basis, design,
                           s.solver.SolverConfig(lam=1.0, gamma=1e-3))
        return Outcome(signature=res.b.tobytes(), quality=[
            {"mcr": 0.1, "sensitivity": 0.9, "specificity": 0.9}])


def test_traced_run_restores_every_binding_and_matches_untraced(sflr):
    before = _bindings(sflr)
    tracer = spans.Tracer()
    m = run.measure(_Workload(sflr), sflr, 0.0, tracer)
    assert m["failed"] == 0, m["problems"]
    assert m["ops"] == run.MIN_BLOCKS * run.BLOCK
    assert m["traced_ops"] == run.MIN_BLOCKS * (run.BLOCK - 1)
    assert _bindings(sflr) == before
    assert not any(hasattr(v, "__wrapped__") for v in before.values())
    summary = tracer.summary(m["traced_ops"])
    assert summary["basis.gram_block.calls"] > 0
    assert summary["solver.fit.calls"] == 1


def test_install_wraps_each_importing_module_binding(sflr):
    tracer = spans.Tracer()
    tracer.install(sflr)
    try:
        for mod in (sflr.design, sflr.tuning, sflr.simulate, sflr.cli):
            for attr in ("build_design", "fit", "tune", "gram_block"):
                if hasattr(mod, attr):
                    assert hasattr(getattr(mod, attr), "__wrapped__"), (mod, attr)
        assert sflr.tuning.ThreadPoolExecutor is not ThreadPoolExecutor
    finally:
        tracer.remove()
    assert sflr.tuning.ThreadPoolExecutor is ThreadPoolExecutor
    assert not hasattr(sflr.design.gram_block, "__wrapped__")


def test_warning_hook_counts_repeats(sflr):
    import warnings

    tracer = spans.Tracer()

    def warn_twice():
        for _ in range(2):
            warnings.warn("ill-conditioned Newton system (cond~1e13); "
                          "using pseudo-solve", RuntimeWarning)
        t = threading.Thread(target=warnings.warn,
                             args=("replicate 3 failed: x", RuntimeWarning))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.run(warn_twice)
    assert tracer.counters["lstsq_fallbacks"] == 2
    assert tracer.counters["failed_replicates"] == 1


# -- metric names -----------------------------------------------------------------

def test_metric_names_and_units_follow_the_pattern():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"])
               for key in ("end_to_end", "per_layer") for m in bench[key])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {**spans.PER_LAYER_UNITS, **run.EXTRA_LAYER_UNITS}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
