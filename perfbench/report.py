"""Run the benchmark on several seeds per workload and summarise it.

    python3 perfbench/report.py

It runs every workload of BENCHMARK.json on seeds 1 to 10. For each
workload and end-to-end metric it prints the median over seeds, the
distance between the first and third quartiles as a share of the median,
that spread against the metric's bound, and the failed ratio over all
operations. Runs are made one at a time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: seeds {SEEDS.start}..{SEEDS.stop - 1}, "
              f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            worst = max(worst, s / metric["bound"])
            print(f"  {name:>14} {statistics.median(values):14.6g} {metric['unit']:<4} "
                  f"spread {s:.4f} = {s / metric['bound']:.2f} x bound {metric['bound']}"
                  f"   values {' '.join(f'{v:.5g}' for v in values)}")
        sys.stdout.flush()
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
