"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload W --seeds 1-10 [--seconds 10] [--out FILE]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile range as a share of the median: the figure
``BENCHMARK.json``'s bounds are set against.  ``--out`` keeps every run's
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", args.seconds, "--trace", "0"],
                              capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {vals}", flush=True)
    table = {k: summary([r["metrics"][k]["value"] for r in runs])
             for k in runs[0]["metrics"]}
    for k, s in table.items():
        print(f"{k:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"iqr/median {s['iqr_share']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
