#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed on each workload, one run at a time, and
prints for every metric its median and its quartile distance over the
median, next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads cli_roundtrip --seeds 1-10 \\
        --out .bench_build/spread.jsonl
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, relative_iqr


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None,
                        help="append each run's result line to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=args.seconds + 600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                status = 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed,
                                         **result}) + "\n")
        print(f"{name}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed ops")
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            spread = relative_iqr(values) if len(values) > 1 else float("nan")
            mid = statistics.median(values)
            print(f"  {key:<16} median {mid:<12.6g} spread {spread:7.4f}"
                  f"  bound {bounds.get(key, float('nan'))}")
    return status


if __name__ == "__main__":
    sys.exit(main())
