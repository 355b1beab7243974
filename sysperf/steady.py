"""Check the benchmark's steadiness: run seeds, report each spread.

    python3 sysperf/steady.py --workload serve-zipf --runs 10

Runs ``run.py`` once per seed (1..runs), one at a time, and prints for
every end-to-end metric the median over runs and the inter-quartile
distance as a share of it (``statistics.quantiles(values, n=4)``),
next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from sysperf.stats import median, relative_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "sysperf" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        sample = values[metric["name"]]
        spread = relative_spread(sample)
        print(f"{metric['name']:>22}  median {median(sample):>10.4g}  "
              f"spread {spread:6.3f}  bound {metric['bound']:.2f}  "
              f"{'ok' if spread <= metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
