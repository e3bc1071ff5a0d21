"""Steadiness report: run every workload in two sets and compare the sets.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10

The workloads and the run length are read from ``BENCHMARK.json``.  Each
run is one ``perfbench/run.py --trace 0`` process with its own seed: set 1
uses seeds 1..runs, set 2 seeds 1001..1000+runs.  For every end-to-end
metric the report prints, per set, the median, the quartiles and the
spread -- the distance between the quartiles as a share of the median,
also given as a share of the metric's bound -- and then how much worse
the second median is than the first.  It flags incorrect output, a
failed-operation share that differs between the sets, a spread above the
metric's bound and a second median worse than the first by more than the
bound.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_SEEDS = (1, 1001)  # first seed of set 1 and of set 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2")

    flagged = []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s, first_seed in enumerate(SET_SEEDS, 1):
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                values = {k: round(m["value"], 4) for k, m in runs[-1]["metrics"].items()}
                print(f"{workload} set {s} seed {seed}: {values} "
                      f"ops {runs[-1]['attempted']}", flush=True)
            if not all(r["correct"] for r in runs):
                flagged.append(f"{workload}: set {s} has incorrect output")
            sets.append(runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        ops = [sum(r["attempted"] for r in runs) for runs in sets]
        print(f"\n{workload}: operations per set {ops}, failed share {shares}", flush=True)
        if shares[0] != shares[1]:
            flagged.append(f"{workload}: failed share differs between sets {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for s, runs in enumerate(sets, 1):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                mark = ""
                if sp > bound:
                    mark = "  <-- spread above bound"
                    flagged.append(f"{workload} {name}: set {s} spread {sp:.4f}")
                print(
                    f"  {name:<12} set {s}: median {med:.6g} "
                    f"q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f} "
                    f"= {sp / bound:.2f} x bound {bound}{mark}"
                )
            worse = (meds[1] - meds[0]) / meds[0]
            if metric["better"] == "higher":
                worse = -worse
            mark = ""
            if worse > bound:
                mark = "  <-- worse than bound"
                flagged.append(f"{workload} {name}: second median worse by {worse:.4f}")
            print(f"  {name:<12} second median worse by {worse:+.4f}{mark}")
    print()
    for f in flagged:
        print(f"FLAGGED: {f}")
    print("steady" if not flagged else f"{len(flagged)} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
