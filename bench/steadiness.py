"""Check how steady the benchmark's end-to-end metrics are across seeds.

Usage: python3 bench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]

Runs bench/run.py once per seed with BENCHMARK.json's run_seconds and
prints, for each end-to-end metric, the median of the runs and the
distance between their first and third quartiles as a share of the
median, next to the metric's bound.
"""

import argparse
import json
import subprocess
import sys

import benchlib


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(benchlib.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(benchlib.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=benchlib.ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        line = []
        for name, vals in values.items():
            vals.append(result["metrics"][name]["value"])
            line.append(f"{name}={vals[-1]:.4f}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = benchlib.quartiles(vals)
        print(f"{m['name']:<12} median {med:.4f} {m['unit']:<4} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {benchlib.spread(vals):.3f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
