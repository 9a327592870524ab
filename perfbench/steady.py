"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--save FILE]

Runs ``run.py`` untraced once per seed (``--first-seed``, the next one, ...)
for each workload, for ``run_seconds`` from ``BENCHMARK.json``. For each
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (the distance between the
quartiles as a share of the median) and the metric's bound, and flags a
spread above a third of the bound; ``setup_s`` is exempt, as only its median
is compared between runs. ``--save`` appends every run's result to a file
as JSON, one line per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = json.loads(run.BENCHMARK.read_text())


def run_once(workload: str, seed: int) -> dict:
    argv = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", default=None)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(workload, seed)
            runs.append(res)
            print(
                f"# {workload} seed={seed} correct={res['correct']} failed={res['failed']}/"
                f"{res['attempted']} run_s={res['run_s']:.1f}",
                flush=True,
            )
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps({"workload": workload, "runs": runs}) + "\n")
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "  <-- above bound/3" if name != "setup_s" and not spread <= bound / 3 else ""
            print(
                f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:>6}{flag}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
