#!/usr/bin/env python3
"""End-to-end benchmark of sflr, with per-layer traces.

One workload per call, run as a closed loop: one caller issues the next op
only after the previous one returns. ``SFLR_THREADS`` and the BLAS thread
variables are left as the caller set them, so by default the package's
pools size themselves from the CPU count.

    python3 perfbench/run.py --workload replicate_one_null --seed 20260823 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every op
but the first of each block (see ``measure``) and prints the per-layer
metrics and the tracing overhead. ``--workload all`` runs every workload,
each in its own process, and prints one table. The last line of a
single-workload run is a JSON object with the keys correct, attempted,
failed and metrics; lines before it start with ``#`` and carry the machine
facts and the metrics that are not in the JSON. The exit code is 1 when an
output check fails and 2 when the sflr sources are missing.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402

# the acceptance tests' base seed; seed 7 is kept for re-checking a claim
# on a seed that was not used while making it
DEFAULT_SEED = 20260823
SETUP_REPEATS = 11
TAIL_BEYOND = 10
BLOCK = 4
MIN_BLOCKS = 2
# held-out quality is the median over the datasets of the first MIN_BLOCKS
# blocks, which every run covers, so a faster commit scores the same data
QUALITY_DATASETS = MIN_BLOCKS * (BLOCK - 1)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "test_mcr": "ratio",
    "ise1": "ise",
    "setup_s": "s",
}
EXTRA_LAYER_UNITS = {"quality.ise0": "ise", "trace.overhead_ratio": "ratio"}


class MissingSources(Exception):
    pass


# -- statistics ---------------------------------------------------------------

def tail_latency(samples) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it; the median when that would fall below it."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples beyond
    if k < len(xs) / 2:
        return statistics.median(xs), 50.0
    return xs[k - 1], 100.0 * k / len(xs)


def relative_iqr(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def chance_problem(rows) -> str | None:
    """The estimator must beat chance on the run's held-out data: the median
    over the quality rows of sensitivity + specificity - 1 (Youden's J: 0
    for a constant or random classifier whatever the class balance, below 0
    for an inverted one) must be positive."""
    if not rows:
        return None
    j = statistics.median(r["sensitivity"] + r["specificity"] - 1 for r in rows)
    if j > 0:
        return None
    return (f"median held-out sensitivity + specificity - 1 over {len(rows)} "
            f"rows is {j:.4g}: no better than chance")


def _median(rows, key):
    vals = [r[key] for r in rows if r.get(key) is not None]
    return statistics.median(vals) if vals else float("nan")


# -- loading the program --------------------------------------------------------

def load_sflr():
    """Import sflr (and its CLI) fresh from this checkout's sources."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sflr" or n.startswith("sflr.")]:
        del sys.modules[name]
    sflr = importlib.import_module("sflr")
    importlib.import_module("sflr.cli")
    if not Path(sflr.__file__).resolve().is_relative_to(SRC):
        raise MissingSources(f"sflr was imported from {sflr.__file__}")
    return sflr


def machine_facts(seed: int) -> dict:
    try:
        backend = importlib.import_module("sflr.kernels").BACKEND
    except (ImportError, AttributeError):
        backend = "none"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "sflr_backend": backend,
        "SFLR_THREADS": os.environ.get("SFLR_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(), "seed": seed,
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one workload ------------------------------------------------------------------

def set_up(workload, seed: int, workdir: str):
    """Import sflr and make the inputs SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        sflr = load_sflr()
        workload.setup(sflr, seed, workdir)
        times.append(perf_counter() - t0)
    return sflr, statistics.median(times)


def dataset_of(i: int) -> int:
    """Dataset of op ``i``: blocks of BLOCK ops run BLOCK - 1 new datasets
    and then the block's first dataset again, whose output must repeat."""
    block, pos = divmod(i, BLOCK)
    return ((BLOCK - 1) * block + (pos if pos < BLOCK - 1 else 0)) % POOL


def measure(workload, sflr, seconds: float, tracer: Tracer | None) -> dict:
    """Run ops until ``seconds`` have passed and MIN_BLOCKS blocks ran.

    Every op's output is compared with the first output of its dataset; a
    mismatch or a raised exception counts as a failed op. With a tracer,
    every op but the first of a block is traced, so the block's last op is
    a traced repeat of an untraced one, and the run ends on a block boundary.
    """
    refs, quality, problems = {}, {}, []
    latencies, traced_ops = [], []
    failed = i = 0
    start = perf_counter()
    deadline = start + seconds
    while not (perf_counter() >= deadline and i >= MIN_BLOCKS * BLOCK
               and (tracer is None or i % BLOCK == 0)):
        d, pos = dataset_of(i), i % BLOCK
        traced = tracer is not None and pos != 0
        if traced:
            tracer.install(sflr)
        t0 = perf_counter()
        try:
            out = tracer.run(workload.op, d) if traced else workload.op(d)
            errs = list(out.problems)
        except Exception as exc:  # an op that raises is a failed op
            out, errs = None, [f"{type(exc).__name__}: {exc}"]
        latencies.append(perf_counter() - t0)
        if traced:
            tracer.remove()
            tracer.fold()
            traced_ops.append(i)
        if not errs:
            key = repr(out.signature)
            if d not in refs:
                refs[d], quality[d] = key, out.quality
            elif key != refs[d]:
                errs.append("output differs from the dataset's first op"
                            + (" (traced vs untraced)" if traced else ""))
        if errs:
            failed += 1
            problems.append(f"op {i} (dataset {d}): " + "; ".join(errs))
        i += 1
    elapsed = perf_counter() - start
    rows = [row for d in range(QUALITY_DATASETS) for row in quality.get(d, [])]
    problem = chance_problem(rows)
    if problem:  # the first ops of the quality datasets produced these rows
        failed += sum(d in quality for d in range(QUALITY_DATASETS))
        problems.append(problem)
    # overhead: each block's traced repeat against its untraced first op
    firsts = [latencies[j - BLOCK + 1] for j in traced_ops if j % BLOCK == BLOCK - 1]
    repeats = [latencies[j] for j in traced_ops if j % BLOCK == BLOCK - 1]
    return {"ops": i, "failed": failed, "elapsed": elapsed,
            "latencies": latencies, "traced_ops": len(traced_ops),
            "overhead": sum(repeats) / sum(firsts) if firsts else float("nan"),
            "problems": problems,
            "quality": rows}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build")
    try:
        sflr, setup_s = set_up(workload, seed, workdir)
        facts = machine_facts(seed)
        tracer = Tracer() if trace else None
        m = measure(workload, sflr, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = m["latencies"]
    tail, pct = tail_latency(lat)
    q = m["quality"]
    e2e = {
        "ops_per_s": m["ops"] / m["elapsed"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_mcr": _median(q, "mcr"),
        "ise1": _median(q, "ise1"),
        "setup_s": setup_s,
    }
    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for key, value in e2e.items():
        print(f"# {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    if pct > 50:
        print(f"# latency_tail_s is p{pct:.1f} of n={len(lat)} ops "
              f"({TAIL_BEYOND} beyond it)")
    else:
        print(f"# latency_tail_s is the median: n={len(lat)} ops is too few "
              f"for {TAIL_BEYOND} samples beyond a higher percentile")
    print(f"# error_rate = {m['failed'] / m['ops']:.6g} ratio "
          f"({m['failed']} of {m['ops']} ops failed)")
    print(f"# ise0 = {_median(q, 'ise0'):.6g} ise (median over "
          f"{len(q)} held-out rows; not bounded, it is ~0 on one_null)")
    for problem in m["problems"]:
        print(f"# FAILED {problem}")

    if trace:
        metrics = tracer.summary(m["traced_ops"])
        metrics["quality.ise0"] = _median(q, "ise0")
        metrics["trace.overhead_ratio"] = m["overhead"]
        units = {**PER_LAYER_UNITS, **EXTRA_LAYER_UNITS}
        print(f"# traced ops = {m['traced_ops']}; tracing overhead: a traced "
              f"repeat takes {m['overhead']:.4f}x its untraced first op")
    else:
        metrics, units = e2e, END_TO_END_UNITS
    result = {
        "correct": m["failed"] == 0, "attempted": m["ops"], "failed": m["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload --------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process and print one table."""
    status, results = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + 600)
        sys.stdout.write(proc.stdout if proc.returncode in (0, 1) else
                         proc.stdout + proc.stderr)
        status = max(status, proc.returncode)
        if proc.stdout.strip():
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    keys = list(results[names[0]]["metrics"]) if names else []
    print(f"\n{'metric':<44}{'unit':<15}" + "".join(f"{n:>20}" for n in names))
    for key in ["correct", "attempted", "failed"]:
        print(f"{key:<59}" + "".join(f"{str(results[n][key]):>20}" for n in names))
    for key in keys:
        unit = results[names[0]]["metrics"][key]["unit"]
        print(f"{key:<44}{unit:<15}" + "".join(
            f"{results[n]['metrics'][key]['value']:>20.6g}" for n in names))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        if not (SRC / "sflr" / "__init__.py").is_file():
            raise MissingSources(f"no sflr sources under {SRC}")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
